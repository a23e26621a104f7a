// Tests for the query layer: predicates, seq vs index scan equivalence,
// scan statistics, and the planner.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "test_paths.h"

#include "common/coding.h"
#include "common/random.h"
#include "query/executor.h"
#include "query/planner.h"
#include "query/predicate.h"
#include "storage/db.h"

namespace segdiff {
namespace {

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("segdiff_query");
    std::remove(path_.c_str());
    auto db = Database::Open(path_, DatabaseOptions{});
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    auto schema = DoubleSchema({"dt", "dv", "tag"});
    ASSERT_TRUE(schema.ok());
    auto table = db_->CreateTable("f", *schema);
    ASSERT_TRUE(table.ok());
    table_ = *table;
    ASSERT_TRUE(table_->CreateIndex("ptdv", {"dt", "dv"}).ok());
    Rng rng(41);
    for (int i = 0; i < 4000; ++i) {
      ASSERT_TRUE(table_
                      ->InsertDoubles({rng.Uniform(0, 100),
                                       rng.Uniform(-10, 10),
                                       static_cast<double>(i)})
                      .ok());
    }
  }
  void TearDown() override {
    db_.reset();
    std::remove(path_.c_str());
  }

  std::string path_;
  std::unique_ptr<Database> db_;
  Table* table_ = nullptr;
};

TEST(PredicateTest, ConditionOps) {
  char record[16];
  EncodeDouble(record, 5.0);
  EncodeDouble(record + 8, -1.0);
  EXPECT_TRUE(EvalCondition({0, CmpOp::kLe, 5.0}, record));
  EXPECT_FALSE(EvalCondition({0, CmpOp::kLt, 5.0}, record));
  EXPECT_TRUE(EvalCondition({0, CmpOp::kGe, 5.0}, record));
  EXPECT_FALSE(EvalCondition({0, CmpOp::kGt, 5.0}, record));
  EXPECT_TRUE(EvalCondition({0, CmpOp::kEq, 5.0}, record));
  EXPECT_TRUE(EvalCondition({1, CmpOp::kLt, 0.0}, record));
}

TEST(PredicateTest, ConjunctionAndResidual) {
  char record[16];
  EncodeDouble(record, 3.0);
  EncodeDouble(record + 8, 4.0);
  Predicate predicate;
  predicate.And(0, CmpOp::kLe, 5.0).And(1, CmpOp::kGe, 4.0);
  EXPECT_TRUE(predicate.Matches(record));
  predicate.AndResidual([](const char* r) {
    return DecodeDoubleColumn(r, 0) + DecodeDoubleColumn(r, 1) > 10.0;
  });
  EXPECT_FALSE(predicate.Matches(record));
  EXPECT_TRUE(Predicate::True().Matches(record));
}

TEST_F(QueryTest, SeqScanMatchesManualFilter) {
  Predicate predicate;
  predicate.And(0, CmpOp::kLe, 30.0).And(1, CmpOp::kLe, -5.0);
  std::set<double> tags;
  ScanStats stats;
  ASSERT_TRUE(SeqScan(*table_, predicate,
                      [&](const char* record, RecordId) {
                        tags.insert(DecodeDoubleColumn(record, 2));
                        return Status::OK();
                      },
                      &stats)
                  .ok());
  // Zone maps may skip pages that cannot match, but every row is either
  // scanned or pruned — never silently dropped.
  EXPECT_EQ(stats.rows_scanned + stats.rows_pruned, 4000u);
  EXPECT_EQ(stats.pages_scanned + stats.pages_pruned,
            table_->heap_meta().page_count);
  EXPECT_EQ(stats.rows_matched, tags.size());
  // Expected selectivity ~ (30/100)*(5/20) = 7.5%; sanity band.
  EXPECT_GT(tags.size(), 150u);
  EXPECT_LT(tags.size(), 450u);
}

TEST_F(QueryTest, IndexScanEqualsSeqScan) {
  for (double T : {5.0, 30.0, 75.0, 150.0}) {
    for (double V : {-8.0, -2.0, 0.0}) {
      Predicate predicate;
      predicate.And(0, CmpOp::kLe, T).And(1, CmpOp::kLe, V);
      std::set<double> seq_tags;
      ASSERT_TRUE(SeqScan(*table_, predicate,
                          [&](const char* record, RecordId) {
                            seq_tags.insert(DecodeDoubleColumn(record, 2));
                            return Status::OK();
                          },
                          nullptr)
                      .ok());
      IndexScanSpec spec;
      auto index = table_->GetIndex("ptdv");
      ASSERT_TRUE(index.ok());
      spec.index = *index;
      spec.lower = IndexKey::LowerBound(
          {-std::numeric_limits<double>::infinity(),
           -std::numeric_limits<double>::infinity()});
      spec.key_continue = [T](const IndexKey& k) { return k.vals[0] <= T; };
      spec.key_filter = [V](const IndexKey& k) { return k.vals[1] <= V; };
      std::set<double> idx_tags;
      ScanStats stats;
      ASSERT_TRUE(IndexScan(*table_, spec, Predicate::True(),
                            [&](const char* record, RecordId) {
                              idx_tags.insert(DecodeDoubleColumn(record, 2));
                              return Status::OK();
                            },
                            &stats)
                      .ok());
      EXPECT_EQ(seq_tags, idx_tags) << "T=" << T << " V=" << V;
      EXPECT_EQ(stats.heap_fetches, idx_tags.size());
      // The scan only walks keys with dt <= T (plus one overshoot).
      EXPECT_LE(stats.index_entries_scanned, 4000u);
    }
  }
}

TEST_F(QueryTest, IndexScanStopsEarly) {
  auto index = table_->GetIndex("ptdv");
  IndexScanSpec spec;
  spec.index = *index;
  spec.lower = IndexKey::LowerBound(
      {-std::numeric_limits<double>::infinity(), 0.0});
  spec.key_continue = [](const IndexKey& k) { return k.vals[0] <= 1.0; };
  ScanStats stats;
  ASSERT_TRUE(IndexScan(*table_, spec, Predicate::True(),
                        [](const char*, RecordId) { return Status::OK(); },
                        &stats)
                  .ok());
  // ~1% of rows have dt <= 1.
  EXPECT_LT(stats.index_entries_scanned, 200u);
}

// A failed index walk still reports what it read: the callback fails at
// its 500th match, and the caller's stats carry those 500 matches and
// the entries and heap fetches behind them.
TEST_F(QueryTest, FailedIndexScanReportsItsStats) {
  auto index = table_->GetIndex("ptdv");
  ASSERT_TRUE(index.ok());
  IndexScanSpec spec;
  spec.index = *index;
  spec.lower = IndexKey::LowerBound(
      {-std::numeric_limits<double>::infinity(),
       -std::numeric_limits<double>::infinity()});
  int seen = 0;
  ScanStats stats;
  Status status = IndexScan(*table_, spec, Predicate::True(),
                            [&](const char*, RecordId) -> Status {
                              if (++seen >= 500) {
                                return Status::Internal("stop");
                              }
                              return Status::OK();
                            },
                            &stats);
  EXPECT_TRUE(status.IsInternal());
  EXPECT_EQ(seen, 500);
  EXPECT_EQ(stats.rows_matched, 500u);
  EXPECT_GE(stats.heap_fetches, 500u);
  EXPECT_GE(stats.index_entries_scanned, 500u);
}

TEST_F(QueryTest, SeqScanEarlyTermination) {
  int seen = 0;
  Status status = SeqScan(*table_, Predicate::True(),
                          [&](const char*, RecordId) -> Status {
                            if (++seen >= 10) {
                              return Status::Internal("stop");
                            }
                            return Status::OK();
                          },
                          nullptr);
  EXPECT_TRUE(status.IsInternal());
  EXPECT_EQ(seen, 10);
}

TEST_F(QueryTest, IndexScanRequiresIndex) {
  IndexScanSpec spec;  // index left null
  EXPECT_TRUE(IndexScan(*table_, spec, Predicate::True(),
                        [](const char*, RecordId) { return Status::OK(); },
                        nullptr)
                  .IsInvalidArgument());
}

TEST(PlannerTest, CostModelPrefersIndexForSparseQueries) {
  TableStatsView stats;
  stats.row_count = 1000000;
  stats.pages_total = 7000;
  stats.pages_after_pruning = 7000;  // nothing prunable
  stats.index_entry_fraction = 0.001;
  stats.heap_fetch_fraction = 0.0005;
  PlanChoice choice = ChooseAccessPath(stats, /*index_available=*/true);
  EXPECT_EQ(choice.path, AccessPath::kIndexScan);
  EXPECT_DOUBLE_EQ(choice.estimated_selectivity, 0.001);
  // Same query, but zone maps already shrink the seq scan to a handful
  // of pages: the sequential side wins outright.
  stats.pages_after_pruning = 40;
  EXPECT_EQ(ChooseAccessPath(stats, true).path, AccessPath::kSeqScan);
}

TEST(PlannerTest, CostModelPrefersSeqScanForDenseQueries) {
  TableStatsView stats;
  stats.row_count = 1000000;
  stats.pages_total = 7000;
  stats.pages_after_pruning = 6500;
  stats.index_entry_fraction = 0.5;
  stats.heap_fetch_fraction = 0.3;  // random fetches dominate
  EXPECT_EQ(ChooseAccessPath(stats, true).path, AccessPath::kSeqScan);
  EXPECT_EQ(ChooseAccessPath(stats, false).path, AccessPath::kSeqScan);
}

TEST(PlannerTest, CostModelRejectsMalformedStats) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  TableStatsView stats;
  stats.row_count = 1000;
  stats.pages_total = 10;
  stats.pages_after_pruning = 10;  // seq cost 10 > index cost ~4
  stats.index_entry_fraction = 0.001;
  stats.heap_fetch_fraction = 0.001;
  ASSERT_EQ(ChooseAccessPath(stats, true).path, AccessPath::kIndexScan);
  TableStatsView bad = stats;
  bad.index_entry_fraction = nan;
  EXPECT_EQ(ChooseAccessPath(bad, true).path, AccessPath::kSeqScan);
  bad = stats;
  bad.heap_fetch_fraction = 1.5;
  EXPECT_EQ(ChooseAccessPath(bad, true).path, AccessPath::kSeqScan);
  bad = stats;
  bad.pages_after_pruning = 11;  // more surviving pages than pages
  EXPECT_EQ(ChooseAccessPath(bad, true).path, AccessPath::kSeqScan);
  bad = stats;
  bad.row_count = 0;
  EXPECT_EQ(ChooseAccessPath(bad, true).path, AccessPath::kSeqScan);
}

}  // namespace
}  // namespace segdiff
