// End-to-end property tests of the paper's Theorem 1 over the full
// pipeline (segmentation -> extraction -> storage -> queries):
//
//   1. NO MISS: every true event (witnessed by the naive oracle) is
//      covered by some returned segment pair.
//   2. TOLERANCE: every returned pair contains an event with
//      dv <= V + 2*eps (drop) / dv >= V - 2*eps (jump) within (0, T].
//
// Swept over eps x (T, V) x data seeds, for both search kinds, with
// missing samples and anomalies in some datasets.

#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "test_paths.h"

#include "segdiff/naive.h"
#include "segdiff/segdiff_index.h"
#include "segdiff/verify.h"
#include "storage/wal.h"
#include "ts/generator.h"

namespace segdiff {
namespace {

struct GuaranteeCase {
  uint64_t seed;
  double eps;
  double missing_probability;
};

class GuaranteesTest : public ::testing::TestWithParam<GuaranteeCase> {
 protected:
  void SetUp() override {
    // Per test, not per (seed, eps): the TEST_P cases of one parameter
    // run concurrently under ctest -j and must not share a store or WAL.
    path_ = UniqueTestPath("segdiff_guarantees");
    compact_path_ = UniqueTestPath("segdiff_guarantees", "_compact.db");
    RemoveStore();
    CadGeneratorOptions gen;
    gen.seed = GetParam().seed;
    gen.num_days = 3;
    gen.cad_events_per_day = 1.0;
    gen.missing_probability = GetParam().missing_probability;
    auto data = GenerateCadSeries(gen);
    ASSERT_TRUE(data.ok());
    series_ = std::move(data->series);

    options_.eps = GetParam().eps;
    options_.window_s = 4 * 3600.0;
    auto index = SegDiffIndex::Open(path_, options_);
    ASSERT_TRUE(index.ok());
    index_ = std::move(index).value();
    ASSERT_TRUE(index_->IngestSeries(series_).ok());
  }
  void TearDown() override {
    index_.reset();
    RemoveStore();
  }
  void RemoveStore() {
    for (const std::string& path : {path_, compact_path_}) {
      std::remove(path.c_str());
      std::remove(Wal::PathFor(path).c_str());
    }
  }

  std::string path_;
  std::string compact_path_;
  SegDiffOptions options_;
  Series series_;
  std::unique_ptr<SegDiffIndex> index_;
};

TEST_P(GuaranteesTest, DropSearchNoMissAndTolerance) {
  NaiveSearcher naive(series_);
  const double eps = GetParam().eps;
  for (double T : {1800.0, 3600.0}) {
    for (double V : {-1.5, -3.0, -6.0}) {
      auto results = index_->SearchDrops(T, V);
      ASSERT_TRUE(results.ok()) << results.status().ToString();

      // Property 1: no true event missed.
      const auto events = naive.SearchDrops(T, V);
      const CoverageReport coverage = CheckCoverage(events, *results);
      EXPECT_TRUE(coverage.AllCovered())
          << "T=" << T << " V=" << V << ": " << coverage.missing.size()
          << " of " << coverage.events << " events uncovered; first at t="
          << (coverage.missing.empty() ? 0.0 : coverage.missing[0].t_start);

      // Property 2: returned pairs within 2*eps tolerance.
      auto violations = FindToleranceViolations(series_, *results, T, V, eps,
                                                SearchKind::kDrop);
      ASSERT_TRUE(violations.ok());
      EXPECT_TRUE(violations->empty())
          << "T=" << T << " V=" << V << ": " << violations->size() << " of "
          << results->size() << " pairs violate the 2eps bound; first t_d="
          << (violations->empty() ? 0.0 : (*violations)[0].t_d);
    }
  }
}

TEST_P(GuaranteesTest, JumpSearchNoMissAndTolerance) {
  NaiveSearcher naive(series_);
  const double eps = GetParam().eps;
  for (double T : {1800.0, 3600.0}) {
    for (double V : {1.5, 3.0}) {
      auto results = index_->SearchJumps(T, V);
      ASSERT_TRUE(results.ok());
      const auto events = naive.SearchJumps(T, V);
      const CoverageReport coverage = CheckCoverage(events, *results);
      EXPECT_TRUE(coverage.AllCovered())
          << "T=" << T << " V=" << V << ": " << coverage.missing.size()
          << " uncovered of " << coverage.events;
      auto violations = FindToleranceViolations(series_, *results, T, V, eps,
                                                SearchKind::kJump);
      ASSERT_TRUE(violations.ok());
      EXPECT_TRUE(violations->empty()) << "T=" << T << " V=" << V;
    }
  }
}

TEST_P(GuaranteesTest, IndexScanUpholdsTheSameGuarantees) {
  NaiveSearcher naive(series_);
  SearchOptions idx;
  idx.mode = QueryMode::kIndexScan;
  const double T = 3600.0;
  const double V = -3.0;
  auto results = index_->SearchDrops(T, V, idx);
  ASSERT_TRUE(results.ok());
  const auto events = naive.SearchDrops(T, V);
  EXPECT_TRUE(CheckCoverage(events, *results).AllCovered());
}

// Compaction converts every feature table to columnar segments and
// drops its indexes: kAuto on the copy must return the row store's pairs
// in the same order and uphold Theorem 1, and the index path is refused.
TEST_P(GuaranteesTest, CompactedStoreUpholdsTheSameGuarantees) {
  ASSERT_TRUE(index_->Compact(compact_path_).ok());
  auto compacted = SegDiffIndex::Open(compact_path_, options_);
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  NaiveSearcher naive(series_);
  const double eps = GetParam().eps;
  SearchOptions automatic;
  automatic.mode = QueryMode::kAuto;
  struct Query {
    SearchKind kind;
    double T;
    double V;
  };
  std::vector<Query> queries;
  for (double T : {1800.0, 3600.0}) {
    for (double V : {-1.5, -3.0, -6.0}) {
      queries.push_back({SearchKind::kDrop, T, V});
    }
  }
  queries.push_back({SearchKind::kJump, 3600.0, 3.0});
  for (const Query& q : queries) {
    const bool drop = q.kind == SearchKind::kDrop;
    auto search = [&](SegDiffIndex* store) {
      return drop ? store->SearchDrops(q.T, q.V, automatic)
                  : store->SearchJumps(q.T, q.V, automatic);
    };
    auto row = search(index_.get());
    auto results = search(compacted->get());
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    ASSERT_EQ(results->size(), row->size()) << "T=" << q.T << " V=" << q.V;
    for (size_t i = 0; i < row->size(); ++i) {
      EXPECT_EQ((*results)[i], (*row)[i])
          << "T=" << q.T << " V=" << q.V << " pair " << i;
    }
    const auto events =
        drop ? naive.SearchDrops(q.T, q.V) : naive.SearchJumps(q.T, q.V);
    EXPECT_TRUE(CheckCoverage(events, *results).AllCovered())
        << "T=" << q.T << " V=" << q.V;
    auto violations =
        FindToleranceViolations(series_, *results, q.T, q.V, eps, q.kind);
    ASSERT_TRUE(violations.ok());
    EXPECT_TRUE(violations->empty()) << "T=" << q.T << " V=" << q.V;
  }
  SearchOptions idx;
  idx.mode = QueryMode::kIndexScan;
  EXPECT_TRUE((*compacted)->SearchDrops(3600.0, -3.0, idx)
                  .status()
                  .IsInvalidArgument());
}

// The guarantees are distribution-free: re-verify on pure random walks
// (no diurnal structure, different sampling rate) across seeds.
class RandomWalkGuaranteesTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  // The test body removes its store file; its WAL sidecar goes here.
  void SetUp() override { RemoveWal(); }
  void TearDown() override { RemoveWal(); }
  void RemoveWal() {
    std::remove(Wal::PathFor(testing::TempDir() + "/segdiff_walk_" +
                             std::to_string(GetParam()) + ".db")
                    .c_str());
  }
};

TEST_P(RandomWalkGuaranteesTest, NoMissAndToleranceBothKinds) {
  auto walk = GenerateRandomWalk(GetParam(), 600, 60.0, 0.5);
  ASSERT_TRUE(walk.ok());
  const std::string path = testing::TempDir() + "/segdiff_walk_" +
                           std::to_string(GetParam()) + ".db";
  std::remove(path.c_str());
  SegDiffOptions options;
  options.eps = 0.3;
  options.window_s = 3600.0;
  auto index = SegDiffIndex::Open(path, options);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE((*index)->IngestSeries(*walk).ok());
  NaiveSearcher naive(*walk);
  for (double T : {600.0, 3000.0}) {
    for (double magnitude : {1.0, 2.5}) {
      auto drops = (*index)->SearchDrops(T, -magnitude);
      ASSERT_TRUE(drops.ok());
      EXPECT_TRUE(
          CheckCoverage(naive.SearchDrops(T, -magnitude), *drops).AllCovered())
          << "drop T=" << T << " V=" << -magnitude;
      auto drop_violations = FindToleranceViolations(
          *walk, *drops, T, -magnitude, options.eps, SearchKind::kDrop);
      ASSERT_TRUE(drop_violations.ok());
      EXPECT_TRUE(drop_violations->empty());

      auto jumps = (*index)->SearchJumps(T, magnitude);
      ASSERT_TRUE(jumps.ok());
      EXPECT_TRUE(
          CheckCoverage(naive.SearchJumps(T, magnitude), *jumps).AllCovered())
          << "jump T=" << T << " V=" << magnitude;
      auto jump_violations = FindToleranceViolations(
          *walk, *jumps, T, magnitude, options.eps, SearchKind::kJump);
      ASSERT_TRUE(jump_violations.ok());
      EXPECT_TRUE(jump_violations->empty());
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(WalkSeeds, RandomWalkGuaranteesTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

INSTANTIATE_TEST_SUITE_P(
    Sweep, GuaranteesTest,
    ::testing::Values(GuaranteeCase{101, 0.1, 0.0},
                      GuaranteeCase{102, 0.2, 0.0},
                      GuaranteeCase{103, 0.4, 0.0},
                      GuaranteeCase{104, 0.8, 0.0},
                      GuaranteeCase{105, 1.0, 0.0},
                      GuaranteeCase{106, 0.2, 0.02},
                      GuaranteeCase{107, 0.4, 0.05},
                      GuaranteeCase{108, 0.0, 0.0}),
    [](const ::testing::TestParamInfo<GuaranteeCase>& info) {
      char name[64];
      std::snprintf(name, sizeof(name), "seed%llu_eps%d_miss%d",
                    static_cast<unsigned long long>(info.param.seed),
                    static_cast<int>(info.param.eps * 100),
                    static_cast<int>(info.param.missing_probability * 100));
      return std::string(name);
    });

}  // namespace
}  // namespace segdiff
