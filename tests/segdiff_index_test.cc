// Facade-level tests for SegDiffIndex: ingest, search modes, reopen,
// sizes, option validation, kAuto's one-pass-per-table execution, and
// the finish step (t_a resolution, ordering and deduplication).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_paths.h"

#include "common/vfs.h"
#include "query/executor.h"
#include "segdiff/segdiff_index.h"
#include "storage/db.h"
#include "storage/page.h"
#include "storage/record.h"
#include "storage/wal.h"
#include "ts/generator.h"

namespace segdiff {
namespace {

class SegDiffIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("segdiff_index");
    std::remove(path_.c_str());
    CadGeneratorOptions gen;
    gen.num_days = 5;
    gen.cad_events_per_day = 1.0;
    auto data = GenerateCadSeries(gen);
    ASSERT_TRUE(data.ok());
    series_ = std::move(data->series);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::unique_ptr<SegDiffIndex> Build(const SegDiffOptions& options) {
    auto index = SegDiffIndex::Open(path_, options);
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    Status ingest = (*index)->IngestSeries(series_);
    EXPECT_TRUE(ingest.ok()) << ingest.ToString();
    return std::move(index).value();
  }

  std::string path_;
  Series series_;
};

TEST_F(SegDiffIndexTest, OptionValidation) {
  SegDiffOptions options;
  options.eps = -0.1;
  EXPECT_TRUE(SegDiffIndex::Open(path_, options).status().IsInvalidArgument());
  options = {};
  options.window_s = 0.0;
  EXPECT_TRUE(SegDiffIndex::Open(path_, options).status().IsInvalidArgument());
}

TEST_F(SegDiffIndexTest, SearchValidation) {
  SegDiffOptions options;
  options.window_s = 4 * 3600.0;
  auto index = Build(options);
  EXPECT_TRUE(index->SearchDrops(3600, 3.0).status().IsInvalidArgument());
  EXPECT_TRUE(index->SearchDrops(-1, -3.0).status().IsInvalidArgument());
  EXPECT_TRUE(index->SearchDrops(0, -3.0).status().IsInvalidArgument());
  EXPECT_TRUE(
      index->SearchDrops(5 * 3600.0, -3.0).status().IsInvalidArgument());
  EXPECT_TRUE(index->SearchJumps(3600, -3.0).status().IsInvalidArgument());
  // Index scan on an index-less store is rejected.
  std::remove(path_.c_str());
  SegDiffOptions no_index;
  no_index.build_indexes = false;
  auto bare = Build(no_index);
  SearchOptions search;
  search.mode = QueryMode::kIndexScan;
  EXPECT_TRUE(
      bare->SearchDrops(3600, -3.0, search).status().IsInvalidArgument());
}

TEST_F(SegDiffIndexTest, AllQueryModesAgree) {
  auto index = Build(SegDiffOptions{});
  for (double T : {900.0, 3600.0, 4 * 3600.0}) {
    for (double V : {-1.0, -3.0, -8.0}) {
      SearchOptions seq;
      seq.mode = QueryMode::kSeqScan;
      auto seq_result = index->SearchDrops(T, V, seq);
      ASSERT_TRUE(seq_result.ok());

      SearchOptions fused = seq;
      fused.fused_scan = true;
      auto fused_result = index->SearchDrops(T, V, fused);
      ASSERT_TRUE(fused_result.ok());

      SearchOptions idx;
      idx.mode = QueryMode::kIndexScan;
      auto idx_result = index->SearchDrops(T, V, idx);
      ASSERT_TRUE(idx_result.ok());

      SearchOptions automatic;
      automatic.mode = QueryMode::kAuto;
      auto auto_result = index->SearchDrops(T, V, automatic);
      ASSERT_TRUE(auto_result.ok());

      ASSERT_EQ(seq_result->size(), idx_result->size())
          << "T=" << T << " V=" << V;
      ASSERT_EQ(seq_result->size(), fused_result->size());
      ASSERT_EQ(seq_result->size(), auto_result->size());
      for (size_t i = 0; i < seq_result->size(); ++i) {
        EXPECT_EQ((*seq_result)[i], (*idx_result)[i]);
        EXPECT_EQ((*seq_result)[i], (*fused_result)[i]);
        EXPECT_EQ((*seq_result)[i], (*auto_result)[i]);
      }
    }
  }
}

TEST_F(SegDiffIndexTest, JumpModesAgree) {
  auto index = Build(SegDiffOptions{});
  for (double V : {1.0, 3.0}) {
    SearchOptions seq;
    auto seq_result = index->SearchJumps(3600, V, seq);
    ASSERT_TRUE(seq_result.ok());
    SearchOptions idx;
    idx.mode = QueryMode::kIndexScan;
    auto idx_result = index->SearchJumps(3600, V, idx);
    ASSERT_TRUE(idx_result.ok());
    ASSERT_EQ(seq_result->size(), idx_result->size());
    for (size_t i = 0; i < seq_result->size(); ++i) {
      EXPECT_EQ((*seq_result)[i], (*idx_result)[i]);
    }
  }
}

TEST_F(SegDiffIndexTest, ResultsAreDedupedSortedAndResolved) {
  auto index = Build(SegDiffOptions{});
  auto results = index->SearchDrops(3600, -3.0);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  for (size_t i = 0; i < results->size(); ++i) {
    const PairId& pair = (*results)[i];
    EXPECT_LE(pair.t_d, pair.t_c);
    EXPECT_LE(pair.t_b, pair.t_a);
    EXPECT_LT(pair.t_b, pair.t_a);  // t_a resolved (nonzero span)
    EXPECT_LE(pair.t_c, pair.t_a);
    if (i > 0) {
      const PairId& prev = (*results)[i - 1];
      EXPECT_TRUE(prev.t_d < pair.t_d ||
                  (prev.t_d == pair.t_d &&
                   (prev.t_c < pair.t_c ||
                    (prev.t_c == pair.t_c && prev.t_b < pair.t_b))))
          << "not strictly sorted/deduped at " << i;
    }
  }
}

TEST_F(SegDiffIndexTest, StatsArePopulated) {
  auto index = Build(SegDiffOptions{});
  SearchStats stats;
  auto results = index->SearchDrops(3600, -3.0, {}, &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(stats.pairs_returned, results->size());
  EXPECT_GT(stats.queries_issued, 0u);
  EXPECT_GT(stats.scan.rows_scanned, 0u);
  EXPECT_GT(stats.seconds, 0.0);

  SearchOptions idx;
  idx.mode = QueryMode::kIndexScan;
  SearchStats idx_stats;
  ASSERT_TRUE(index->SearchDrops(3600, -3.0, idx, &idx_stats).ok());
  EXPECT_GT(idx_stats.scan.index_entries_scanned, 0u);
  EXPECT_EQ(idx_stats.scan.rows_scanned, 0u);
}

TEST_F(SegDiffIndexTest, SizesAccounting) {
  auto index = Build(SegDiffOptions{});
  const SegDiffSizes sizes = index->GetSizes();
  EXPECT_GT(sizes.feature_rows, 0u);
  EXPECT_GT(sizes.feature_bytes, 0u);
  EXPECT_GT(sizes.index_bytes, 0u);
  EXPECT_GT(sizes.segment_dir_bytes, 0u);
  EXPECT_GE(sizes.file_bytes,
            sizes.feature_bytes + sizes.index_bytes + sizes.segment_dir_bytes);
  EXPECT_GT(index->num_segments(), 0u);
  EXPECT_EQ(index->num_observations(), series_.size());
  // Extractor stats flowed through.
  EXPECT_EQ(index->extractor_stats().segments_in, index->num_segments());
}

TEST_F(SegDiffIndexTest, NoIndexStoreIsSmaller) {
  auto with_index = Build(SegDiffOptions{});
  const uint64_t with_bytes = with_index->GetSizes().file_bytes;
  with_index.reset();
  std::remove(path_.c_str());
  SegDiffOptions options;
  options.build_indexes = false;
  auto without_index = Build(options);
  const SegDiffSizes sizes = without_index->GetSizes();
  EXPECT_EQ(sizes.index_bytes, 0u);
  EXPECT_LT(sizes.file_bytes, with_bytes);
}

TEST_F(SegDiffIndexTest, DropCachesPreservesResults) {
  auto index = Build(SegDiffOptions{});
  auto warm = index->SearchDrops(3600, -3.0);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(index->DropCaches().ok());
  auto cold = index->SearchDrops(3600, -3.0);
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(warm->size(), cold->size());
  for (size_t i = 0; i < warm->size(); ++i) {
    EXPECT_EQ((*warm)[i], (*cold)[i]);
  }
}

TEST_F(SegDiffIndexTest, ReopenedStoreAnswersQueries) {
  std::vector<PairId> expected;
  {
    auto index = Build(SegDiffOptions{});
    auto results = index->SearchDrops(3600, -3.0);
    ASSERT_TRUE(results.ok());
    expected = *results;
    ASSERT_TRUE(index->Checkpoint().ok());
  }
  auto reopened = SegDiffIndex::Open(path_, SegDiffOptions{});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto results = (*reopened)->SearchDrops(3600, -3.0);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*results)[i], expected[i]);
  }
  // Index path also works after reopen.
  SearchOptions idx;
  idx.mode = QueryMode::kIndexScan;
  auto idx_results = (*reopened)->SearchDrops(3600, -3.0, idx);
  ASSERT_TRUE(idx_results.ok());
  EXPECT_EQ(idx_results->size(), expected.size());
}

TEST_F(SegDiffIndexTest, LineQueryAloneDetectsMidEdgeIntersection) {
  // One long falling segment: samples (0, 0) and (100, -10) only. The
  // self pair's stored frontier is (0, -eps) -> (100, -10 - eps). For
  // T = 50, V = -3 NEITHER corner passes the point query (corner 1 has
  // dv = -eps > V; corner 2 has dt = 100 > T), so only the line query
  // (edge value at T is about -5.2 <= V) can return the pair.
  std::remove(path_.c_str());
  Series ramp;
  ASSERT_TRUE(ramp.Append({0, 0}).ok());
  ASSERT_TRUE(ramp.Append({100, -10}).ok());
  SegDiffOptions options;
  options.eps = 0.2;
  options.window_s = 200.0;
  auto index = SegDiffIndex::Open(path_, options);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE((*index)->IngestSeries(ramp).ok());
  for (QueryMode mode : {QueryMode::kSeqScan, QueryMode::kIndexScan}) {
    SearchOptions search;
    search.mode = mode;
    auto results = (*index)->SearchDrops(50.0, -3.0, search);
    ASSERT_TRUE(results.ok());
    ASSERT_EQ(results->size(), 1u) << "mode " << static_cast<int>(mode);
    EXPECT_DOUBLE_EQ((*results)[0].t_d, 0.0);
    EXPECT_DOUBLE_EQ((*results)[0].t_a, 100.0);
  }
  // Sanity: with V = -11 nothing (not even the line query) fires.
  auto none = (*index)->SearchDrops(50.0, -11.0);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST_F(SegDiffIndexTest, IncrementalIngestMatchesSearchability) {
  // Ingest in two chunks; later chunk's events are still found.
  auto index = SegDiffIndex::Open(path_, SegDiffOptions{});
  ASSERT_TRUE(index.ok());
  const size_t half = series_.size() / 2;
  Series first;
  Series second;
  for (size_t i = 0; i < series_.size(); ++i) {
    ASSERT_TRUE((i < half ? first : second).Append(series_[i]).ok());
  }
  ASSERT_TRUE((*index)->IngestSeries(first).ok());
  const uint64_t rows_after_first = (*index)->GetSizes().feature_rows;
  ASSERT_TRUE((*index)->IngestSeries(second).ok());
  EXPECT_GT((*index)->GetSizes().feature_rows, rows_after_first);
  auto results = (*index)->SearchDrops(3600, -3.0);
  ASSERT_TRUE(results.ok());
  // Events exist in both halves (one CAD event per day).
  bool in_first = false;
  bool in_second = false;
  const double split_t = series_[half].t;
  for (const PairId& pair : *results) {
    if (pair.t_a < split_t) in_first = true;
    if (pair.t_b > split_t) in_second = true;
  }
  EXPECT_TRUE(in_first);
  EXPECT_TRUE(in_second);
}

/// Removes a store file and its WAL sidecar.
void RemoveStoreFiles(const std::string& path) {
  std::remove(path.c_str());
  std::remove(Wal::PathFor(path).c_str());
}

/// Compacts `index` into `destination` and opens the copy.
std::unique_ptr<SegDiffIndex> CompactAndOpen(SegDiffIndex* index,
                                             const std::string& destination) {
  RemoveStoreFiles(destination);
  Status compacted = index->Compact(destination);
  EXPECT_TRUE(compacted.ok()) << compacted.ToString();
  SegDiffOptions reopen;
  reopen.create_if_missing = false;
  auto copy = SegDiffIndex::Open(destination, reopen);
  EXPECT_TRUE(copy.ok()) << copy.status().ToString();
  return copy.ok() ? std::move(copy).value() : nullptr;
}

/// Feature rows of `kind` over its three tables.
uint64_t FeatureRows(SegDiffIndex* index, SearchKind kind) {
  uint64_t rows = 0;
  for (int k = 1; k <= 3; ++k) {
    auto table = index->db()->GetTable(std::string(SearchKindName(kind)) +
                                       std::to_string(k));
    EXPECT_TRUE(table.ok());
    rows += (*table)->row_count();
  }
  return rows;
}

// Without usable indexes kAuto runs each feature table's queries as one
// pass: three scans per search, each feature row scanned (or pruned)
// once and each returned pair matched once — on a compacted store and
// on an index-less row store alike — with the per-corner scans' pairs.
TEST_F(SegDiffIndexTest, AutoSearchRunsOnePassPerTable) {
  SegDiffOptions no_index;
  no_index.build_indexes = false;
  auto bare = Build(no_index);
  const std::string compact_path = UniqueTestPath("segdiff_index",
                                                  "_compact.db");
  auto compacted = CompactAndOpen(bare.get(), compact_path);
  ASSERT_NE(compacted, nullptr);
  struct Case {
    SearchKind kind;
    double T;
    double V;
  };
  const Case cases[] = {{SearchKind::kDrop, 3600.0, -3.0},
                        {SearchKind::kDrop, 4 * 3600.0, -1.0},
                        {SearchKind::kDrop, 900.0, -8.0},
                        {SearchKind::kJump, 3600.0, 2.0}};
  for (SegDiffIndex* index : {bare.get(), compacted.get()}) {
    const char* label = index == bare.get() ? "row" : "compacted";
    for (const Case& c : cases) {
      for (int k = 1; k <= 3; ++k) {
        auto table = index->db()->GetTable(
            std::string(SearchKindName(c.kind)) + std::to_string(k));
        ASSERT_TRUE(table.ok());
        ASSERT_GT((*table)->row_count(), 0u) << label << " " << k;
      }
      auto search = [&](const SearchOptions& options, SearchStats* stats) {
        return c.kind == SearchKind::kDrop
                   ? index->SearchDrops(c.T, c.V, options, stats)
                   : index->SearchJumps(c.T, c.V, options, stats);
      };
      SearchStats per_corner_stats;
      auto per_corner = search(SearchOptions{}, &per_corner_stats);
      ASSERT_TRUE(per_corner.ok()) << per_corner.status().ToString();
      SearchOptions automatic;
      automatic.mode = QueryMode::kAuto;
      for (const size_t threads : {size_t{0}, size_t{4}}) {
        automatic.num_threads = threads;
        SearchStats stats;
        auto result = search(automatic, &stats);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(*result, *per_corner)
            << label << " T=" << c.T << " V=" << c.V;
        EXPECT_EQ(stats.queries_issued, 3u) << label;
        EXPECT_EQ(stats.scan.rows_scanned + stats.scan.rows_pruned,
                  FeatureRows(index, c.kind))
            << label << " T=" << c.T << " V=" << c.V;
        EXPECT_EQ(stats.scan.rows_matched, stats.pairs_returned)
            << label << " T=" << c.T << " V=" << c.V;
      }
      // The per-corner path still issues one scan per corner and edge.
      EXPECT_EQ(per_corner_stats.queries_issued, 9u) << label;
    }
  }
  compacted.reset();
  RemoveStoreFiles(compact_path);
}

// A quarantined columnar segment is met once by the pass over its
// table: the kAuto search is flagged partial, loses exactly that
// segment's rows, and returns a subset of a clean copy's pairs. Repair
// drops rows by the same rule: its copy loses exactly that segment, and
// answers what the partial search answered.
TEST_F(SegDiffIndexTest, AutoSearchCountsQuarantinedSegmentOnce) {
  auto source = Build(SegDiffOptions{});
  const std::string clean_path = UniqueTestPath("segdiff_index", "_clean.db");
  const std::string damaged_path =
      UniqueTestPath("segdiff_index", "_damaged.db");
  const std::string repaired_path =
      UniqueTestPath("segdiff_index", "_repaired.db");
  auto clean = CompactAndOpen(source.get(), clean_path);
  ASSERT_NE(clean, nullptr);
  PageId victim = kInvalidPageId;
  uint64_t victim_rows = 0;
  uint64_t victim_pages = 0;
  {
    auto damaged = CompactAndOpen(source.get(), damaged_path);
    ASSERT_NE(damaged, nullptr);
    auto drop2 = damaged->db()->GetTable("drop2");
    ASSERT_TRUE(drop2.ok());
    const ColumnStore* columnar = (*drop2)->columnar();
    ASSERT_NE(columnar, nullptr);
    ASSERT_GT(columnar->segment_count(), 0u);
    victim = columnar->meta().segments[0].first_page;
    victim_rows = columnar->meta().segments[0].rows;
    victim_pages = columnar->meta().segments[0].pages;
  }
  {
    // Flip one bit inside the segment's first page.
    auto file = Vfs::Default()->OpenFile(damaged_path, /*create=*/false);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    const uint64_t offset = victim * kPageSize + 64;
    char b = 0;
    ASSERT_TRUE((*file)->Read(offset, 1, &b).ok());
    b ^= 0x40;
    ASSERT_TRUE((*file)->Write(offset, &b, 1).ok());
    ASSERT_TRUE((*file)->Sync().ok());
  }
  SegDiffOptions reopen;
  reopen.create_if_missing = false;
  auto damaged = SegDiffIndex::Open(damaged_path, reopen);
  ASSERT_TRUE(damaged.ok()) << damaged.status().ToString();

  SearchOptions automatic;
  automatic.mode = QueryMode::kAuto;
  auto whole = clean->SearchDrops(4 * 3600.0, -1.0, automatic);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  SearchStats stats;
  auto partial = (*damaged)->SearchDrops(4 * 3600.0, -1.0, automatic, &stats);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_TRUE(stats.partial);
  EXPECT_EQ(stats.scan.rows_quarantined, victim_rows);
  EXPECT_LT(partial->size(), whole->size());
  for (const PairId& pair : *partial) {
    EXPECT_TRUE(std::find(whole->begin(), whole->end(), pair) != whole->end())
        << "a damaged store invented a pair";
  }
  // Without a stats out-param the damage stays a hard error.
  auto strict = (*damaged)->SearchDrops(4 * 3600.0, -1.0, automatic);
  ASSERT_FALSE(strict.ok());
  EXPECT_TRUE(strict.status().IsCorruption());

  RemoveStoreFiles(repaired_path);
  RepairReport report;
  Status repair = (*damaged)->Repair(repaired_path, &report);
  ASSERT_TRUE(repair.ok()) << repair.ToString();
  EXPECT_EQ(report.rows_lost, stats.scan.rows_quarantined);
  EXPECT_EQ(report.pages_skipped, victim_pages);
  auto repaired = SegDiffIndex::Open(repaired_path, reopen);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  SearchStats repaired_stats;
  auto salvaged =
      (*repaired)->SearchDrops(4 * 3600.0, -1.0, automatic, &repaired_stats);
  ASSERT_TRUE(salvaged.ok()) << salvaged.status().ToString();
  EXPECT_FALSE(repaired_stats.partial);
  EXPECT_EQ(*salvaged, *partial);

  repaired->reset();
  damaged->reset();
  clean.reset();
  RemoveStoreFiles(clean_path);
  RemoveStoreFiles(damaged_path);
  RemoveStoreFiles(repaired_path);
}

/// FNV-1a over the bytes of `pairs`: one number that changes when any
/// pair, its order or the count changes.
uint64_t PairsDigest(const std::vector<PairId>& pairs) {
  uint64_t hash = 14695981039346656037ull;
  for (const PairId& pair : pairs) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&pair);
    for (size_t i = 0; i < sizeof(PairId); ++i) {
      hash = (hash ^ bytes[i]) * 1099511628211ull;
    }
  }
  return hash;
}

/// A 4-day random walk sampled every 5 minutes, built from integer
/// steps and IEEE basic arithmetic only, so every platform ingests the
/// same samples.
Series RandomWalkSeries() {
  Series series;
  uint64_t state = 20080325;
  double v = 20.0;
  for (int i = 0; i < 4 * 288; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    v += static_cast<double>(static_cast<int>((state >> 33) % 81) - 40) /
         100.0;
    EXPECT_TRUE(series.Append({300.0 * i, v}).ok());
  }
  return series;
}

// Pairs of a fixed store, pinned as digests: every mode, thread count
// and format returns the same pairs byte for byte, so a change to how
// the finish orders, dedupes or resolves t_a that moves one byte fails
// here.
TEST_F(SegDiffIndexTest, GoldenResultsInEveryModeAndFormat) {
  std::remove(path_.c_str());
  auto index = SegDiffIndex::Open(path_, SegDiffOptions{});
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ASSERT_TRUE((*index)->IngestSeries(RandomWalkSeries()).ok());
  const std::string compact_path =
      UniqueTestPath("segdiff_index", "_compact.db");
  auto compacted = CompactAndOpen(index->get(), compact_path);
  ASSERT_NE(compacted, nullptr);
  struct Golden {
    SearchKind kind;
    double T;
    double V;
    size_t pairs;
    uint64_t digest;
  };
  const Golden goldens[] = {
      {SearchKind::kDrop, 900.0, -0.5, 911, 0x9a7767d0b790b00aull},
      {SearchKind::kDrop, 3600.0, -2.0, 67, 0x7472971b81e102cbull},
      {SearchKind::kDrop, 3600.0, -3.0, 4, 0xad9d77f374aee165ull},
      {SearchKind::kDrop, 4 * 3600.0, -1.0, 6358, 0x547d755201589733ull},
      {SearchKind::kDrop, 8 * 3600.0, -4.0, 976, 0xd33f861fc2dffe62ull},
      {SearchKind::kJump, 900.0, 2.0, 0, 0xcbf29ce484222325ull},
      {SearchKind::kJump, 3600.0, 1.0, 1131, 0x274090cb6e526f6bull},
      {SearchKind::kJump, 4 * 3600.0, 3.0, 524, 0x88c433762b6eb0b6ull},
  };
  struct Mode {
    const char* name;
    QueryMode mode;
    bool fused;
  };
  const Mode modes[] = {{"per-corner", QueryMode::kSeqScan, false},
                        {"fused", QueryMode::kSeqScan, true},
                        {"index", QueryMode::kIndexScan, false},
                        {"auto", QueryMode::kAuto, false}};
  for (SegDiffIndex* store : {index->get(), compacted.get()}) {
    const bool row = store == index->get();
    for (const Golden& golden : goldens) {
      for (const Mode& mode : modes) {
        for (const size_t threads : {size_t{0}, size_t{4}}) {
          SearchOptions options;
          options.mode = mode.mode;
          options.fused_scan = mode.fused;
          options.num_threads = threads;
          auto result = golden.kind == SearchKind::kDrop
                            ? store->SearchDrops(golden.T, golden.V, options)
                            : store->SearchJumps(golden.T, golden.V, options);
          const std::string where =
              std::string(row ? "row" : "compacted") + " " + mode.name +
              " threads=" + std::to_string(threads) + " " +
              std::string(SearchKindName(golden.kind)) + " T=" + std::to_string(golden.T) +
              " V=" + std::to_string(golden.V);
          if (!row && mode.mode == QueryMode::kIndexScan) {
            EXPECT_TRUE(result.status().IsInvalidArgument()) << where;
            continue;
          }
          ASSERT_TRUE(result.ok()) << where << ": "
                                   << result.status().ToString();
          EXPECT_EQ(result->size(), golden.pairs) << where;
          EXPECT_EQ(PairsDigest(*result), golden.digest) << where;
        }
      }
    }
  }
  compacted.reset();
  RemoveStoreFiles(compact_path);
}

/// Start times of `index`'s segment directory, in table order.
std::vector<double> SegmentStarts(SegDiffIndex* index) {
  std::vector<double> starts;
  auto segments = index->db()->GetTable("segments");
  EXPECT_TRUE(segments.ok());
  Status scanned = SeqScan(**segments, Predicate::True(),
                           [&starts](const char* record, RecordId) {
                             starts.push_back(DecodeDoubleColumn(record, 0));
                             return Status::OK();
                           });
  EXPECT_TRUE(scanned.ok()) << scanned.ToString();
  return starts;
}

/// Appends `rows` to table `table` of the closed store at `path`
/// through a raw Database, as a damaged or crafted store would hold
/// them; the ingest blob stays, so the store still opens.
void AppendRawRows(const std::string& path, const std::string& table,
                   const std::vector<std::vector<double>>& rows) {
  DatabaseOptions raw_options;
  raw_options.create_if_missing = false;
  auto raw = Database::Open(path, raw_options);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  auto target = (*raw)->GetTable(table);
  ASSERT_TRUE(target.ok()) << target.status().ToString();
  for (const std::vector<double>& row : rows) {
    ASSERT_TRUE((*target)->InsertDoubles(row).ok());
  }
  ASSERT_TRUE((*raw)->Checkpoint().ok());
}

/// A drop1 row [dt1, dv1, t_d, t_c, t_b] that a 1 h, -3 drop search
/// selects through its point query.
std::vector<double> CraftedDropRow(double t_d, double t_c, double t_b) {
  return {600.0, -5.0, t_d, t_c, t_b};
}

constexpr QueryMode kFinishModes[] = {QueryMode::kSeqScan,
                                      QueryMode::kIndexScan, QueryMode::kAuto};

// A feature row whose t_b starts no segment (before the first start,
// between two starts, after the last) fails the search with the
// unknown-segment Corruption in every mode, whether the rows before it
// arrive in t_b order (hinted lookups) or shuffled (binary searches).
TEST_F(SegDiffIndexTest, UnknownSegmentFailsSearch) {
  std::vector<double> starts;
  {
    auto index = Build(SegDiffOptions{});
    starts = SegmentStarts(index.get());
  }
  ASSERT_GT(starts.size(), 40u);
  const double bad_t_bs[] = {starts.front() - 60.0,
                             (starts[20] + starts[21]) / 2.0,
                             starts.back() + 60.0};
  for (const double bad : bad_t_bs) {
    for (const bool shuffled : {false, true}) {
      // Two rows per segment start for the first 40 segments, then the
      // stray row, in t_b order or shuffled.
      std::vector<std::vector<double>> rows;
      for (size_t i = 0; i < 40; ++i) {
        rows.push_back(CraftedDropRow(starts[i] - 900.0, starts[i] - 300.0,
                                      starts[i]));
        rows.push_back(CraftedDropRow(starts[i] - 600.0, starts[i] - 300.0,
                                      starts[i]));
      }
      rows.push_back(CraftedDropRow(bad - 900.0, bad - 300.0, bad));
      if (shuffled) {
        std::mt19937_64 rng(7);
        std::shuffle(rows.begin(), rows.end(), rng);
      } else {
        std::stable_sort(rows.begin(), rows.end(),
                         [](const std::vector<double>& a,
                            const std::vector<double>& b) {
                           return a[4] < b[4];
                         });
      }
      RemoveStoreFiles(path_);
      Build(SegDiffOptions{}).reset();
      AppendRawRows(path_, "drop1", rows);
      auto index = SegDiffIndex::Open(path_, SegDiffOptions{});
      ASSERT_TRUE(index.ok()) << index.status().ToString();
      for (const QueryMode mode : kFinishModes) {
        SearchOptions options;
        options.mode = mode;
        auto result = (*index)->SearchDrops(3600.0, -3.0, options);
        const std::string where = "t_b=" + std::to_string(bad) +
                                  (shuffled ? " shuffled" : " ordered") +
                                  " mode=" +
                                  std::to_string(static_cast<int>(mode));
        ASSERT_FALSE(result.ok()) << where;
        EXPECT_TRUE(result.status().IsCorruption()) << where;
        EXPECT_NE(result.status().ToString().find("unknown segment"),
                  std::string::npos)
            << where << ": " << result.status().ToString();
      }
    }
  }
}

// A feature row with a NaN t_d or t_c breaks PairIdLess's strict weak
// order, which would leave duplicates apart and the NaN pairs in the
// answer. Ingest never writes one, so a search that collects such a
// row has met a damaged or crafted store and fails with Corruption, in
// every mode.
TEST_F(SegDiffIndexTest, NonFinitePairKeyFailsSearch) {
  std::vector<double> starts;
  {
    auto index = Build(SegDiffOptions{});
    starts = SegmentStarts(index.get());
    for (const QueryMode mode : kFinishModes) {
      SearchOptions options;
      options.mode = mode;
      auto clean = index->SearchDrops(3600.0, -1.0, options);
      ASSERT_TRUE(clean.ok()) << clean.status().ToString();
      ASSERT_FALSE(clean->empty());
    }
  }
  ASSERT_GT(starts.size(), 50u);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::vector<double>> rows;
  for (size_t i = 0; i < 50; ++i) {
    const double t_b = starts[i];
    rows.push_back(i % 2 == 0 ? CraftedDropRow(nan, t_b - 300.0, t_b)
                              : CraftedDropRow(t_b - 600.0, nan, t_b));
  }
  AppendRawRows(path_, "drop1", rows);
  auto index = SegDiffIndex::Open(path_, SegDiffOptions{});
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  for (const QueryMode mode : kFinishModes) {
    SearchOptions options;
    options.mode = mode;
    auto result = (*index)->SearchDrops(3600.0, -1.0, options);
    ASSERT_FALSE(result.ok()) << "mode " << static_cast<int>(mode);
    EXPECT_TRUE(result.status().IsCorruption())
        << result.status().ToString();
    EXPECT_NE(result.status().ToString().find("non-finite"),
              std::string::npos)
        << result.status().ToString();
  }
}

/// The finish's reference order: std::sort by PairIdLess, then
/// std::unique on the key.
std::vector<PairId> SortThenUnique(std::vector<PairId> pairs) {
  std::sort(pairs.begin(), pairs.end(), PairIdLess);
  pairs.erase(std::unique(pairs.begin(), pairs.end(), PairIdKeyEq),
              pairs.end());
  return pairs;
}

/// SortUniquePairs(`input`) must equal `expected` byte for byte.
void ExpectOrderedLike(std::vector<PairId> input,
                       const std::vector<PairId>& expected,
                       const std::string& label) {
  SortUniquePairs(&input);
  ASSERT_EQ(input.size(), expected.size()) << label;
  if (!input.empty()) {
    EXPECT_EQ(std::memcmp(input.data(), expected.data(),
                          input.size() * sizeof(PairId)),
              0)
        << label;
  }
}

/// A pair whose t_a follows from its t_b, as every resolved pair's
/// does, so equal keys carry equal bytes.
PairId MakePair(double t_d, double t_c, double t_b) {
  PairId pair;
  pair.t_d = t_d;
  pair.t_c = t_c;
  pair.t_b = t_b;
  pair.t_a = t_b + 300.0;
  return pair;
}

/// `n` pairs on a 300 s grid with about one duplicate key in four.
std::vector<PairId> GridPairs(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<PairId> pairs;
  for (size_t i = 0; i < n; ++i) {
    const double t_d = 300.0 * static_cast<double>(rng() % (n + 1));
    const double t_c = t_d + 300.0 * static_cast<double>(rng() % 3);
    pairs.push_back(
        MakePair(t_d, t_c, t_c + 300.0 * static_cast<double>(rng() % 3)));
  }
  return pairs;
}

TEST(SortUniquePairsTest, MatchesSortThenUniqueAcrossSizes) {
  // Around the small-input cutoff (64) and the bucket count (n / 2).
  for (const size_t n : {0, 1, 2, 3, 15, 16, 17, 31, 32, 33, 63, 64, 65, 66,
                         127, 128, 129, 1000, 20000}) {
    const std::vector<PairId> pairs = GridPairs(n, n);
    ExpectOrderedLike(pairs, SortThenUnique(pairs),
                      "random n=" + std::to_string(n));
    std::vector<PairId> reversed = SortThenUnique(pairs);
    reversed.insert(reversed.end(), reversed.begin(), reversed.end());
    std::sort(reversed.begin(), reversed.end(), PairIdLess);
    std::reverse(reversed.begin(), reversed.end());
    ExpectOrderedLike(reversed, SortThenUnique(reversed),
                      "reversed n=" + std::to_string(n));
  }
}

TEST(SortUniquePairsTest, MatchesSortThenUniqueOnPassShapedRuns) {
  // Three passes' outputs, each a subset of the pairs in t_b order,
  // overlapping so the union holds duplicates across runs.
  const std::vector<PairId> base = GridPairs(3000, 11);
  std::mt19937_64 rng(12);
  std::vector<PairId> collected;
  for (int run = 0; run < 3; ++run) {
    std::vector<PairId> part;
    for (const PairId& pair : base) {
      if (rng() % 2 == 0) {
        part.push_back(pair);
      }
    }
    std::stable_sort(part.begin(), part.end(),
                     [](const PairId& a, const PairId& b) {
                       return a.t_b < b.t_b;
                     });
    collected.insert(collected.end(), part.begin(), part.end());
  }
  ExpectOrderedLike(collected, SortThenUnique(collected), "runs");
}

TEST(SortUniquePairsTest, MatchesSortThenUniqueOnDegenerateSpreads) {
  std::mt19937_64 rng(13);
  auto pick = [&rng](const std::vector<double>& values) {
    return values[rng() % values.size()];
  };
  struct Case {
    const char* label;
    std::vector<double> t_ds;
  };
  const double sub = std::numeric_limits<double>::denorm_min();
  const Case cases[] = {
      // Zero span: one distinct t_d, told apart by t_c and t_b only.
      {"one t_d", {4200.0}},
      // The span overflows to infinity.
      {"+-1e308", {-1e308, 0.0, 1e308}},
      {"max", {-std::numeric_limits<double>::max(), 1.0,
               std::numeric_limits<double>::max()}},
      // The span is subnormal, so buckets / span overflows.
      {"subnormal apart", {0.0, sub}},
      {"subnormal apart, offset", {1.0, 1.0 + 2.220446049250313e-16}},
      // Most pairs in one t_d: one bucket far above the
      // insertion-sort size among sparse ones.
      {"clustered", {7.0, 7.0, 7.0, 7.0, 7.0, 7.0, 1.0, 2.0, 3.0, 50.0}},
  };
  for (const Case& c : cases) {
    for (const size_t n : {size_t{10}, size_t{100}, size_t{1000}}) {
      std::vector<PairId> pairs;
      for (size_t i = 0; i < n; ++i) {
        const double t_c = 300.0 * static_cast<double>(rng() % 8);
        pairs.push_back(MakePair(pick(c.t_ds), t_c,
                                 t_c + 300.0 * static_cast<double>(rng() % 8)));
      }
      ExpectOrderedLike(pairs, SortThenUnique(pairs),
                        std::string(c.label) + " n=" + std::to_string(n));
    }
  }
  // Equal t_d, different t_c: t_c decides.
  const std::vector<PairId> tie = {MakePair(5.0, 9.0, 9.0),
                                   MakePair(5.0, 6.0, 9.0),
                                   MakePair(5.0, 6.0, 9.0)};
  ExpectOrderedLike(tie, {MakePair(5.0, 6.0, 9.0), MakePair(5.0, 9.0, 9.0)},
                    "t_c tie-break");
}

// -0.0 and 0.0 are one key: they share a bucket and deduplicate, and
// the first in collection order survives. std::sort may keep either
// zero, so the reference here is the stable sort.
TEST(SortUniquePairsTest, NegativeZeroIsZero) {
  for (const size_t n : {size_t{8}, size_t{200}}) {
    std::mt19937_64 rng(n);
    std::vector<PairId> pairs;
    for (size_t i = 0; i < n; ++i) {
      const double t_d = rng() % 2 == 0 ? -0.0 : 0.0;
      const double t_b = 300.0 * static_cast<double>(rng() % 4);
      pairs.push_back(MakePair(i % 3 == 0 ? 600.0 * static_cast<double>(i)
                                          : t_d,
                               0.0, t_b));
    }
    std::vector<PairId> expected = pairs;
    std::stable_sort(expected.begin(), expected.end(), PairIdLess);
    expected.erase(
        std::unique(expected.begin(), expected.end(), PairIdKeyEq),
        expected.end());
    ExpectOrderedLike(pairs, expected, "n=" + std::to_string(n));
    std::vector<PairId> ordered = pairs;
    SortUniquePairs(&ordered);
    size_t zeros = 0;
    for (const PairId& pair : ordered) {
      zeros += pair.t_d == 0.0 ? 1 : 0;
    }
    EXPECT_LE(zeros, 4u) << "a zero key was left twice";
  }
}

}  // namespace
}  // namespace segdiff
