// Parallel == serial, bit for bit: SearchDrops/SearchJumps with
// num_threads = 4 must return byte-identical (sorted, deduplicated)
// results AND identical SearchStats across every query mode, for both
// the SegDiff index and the Exh baseline. Also covers the raw
// ParallelSeqScan executor against its serial counterpart.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_paths.h"

#include "common/random.h"
#include "query/executor.h"
#include "query/predicate.h"
#include "segdiff/exh_index.h"
#include "segdiff/segdiff_index.h"
#include "segdiff/transect_index.h"
#include "storage/db.h"
#include "storage/record.h"
#include "ts/generator.h"

namespace segdiff {
namespace {

void ExpectSameStats(const SearchStats& serial, const SearchStats& parallel) {
  EXPECT_EQ(serial.scan.rows_scanned, parallel.scan.rows_scanned);
  EXPECT_EQ(serial.scan.index_entries_scanned,
            parallel.scan.index_entries_scanned);
  EXPECT_EQ(serial.queries_issued, parallel.queries_issued);
  EXPECT_EQ(serial.pairs_returned, parallel.pairs_returned);
}

class ParallelQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("segdiff_parallel_query");
    std::remove(path_.c_str());
    CadGeneratorOptions gen;
    gen.num_days = 4;
    gen.cad_events_per_day = 2.0;
    auto data = GenerateCadSeries(gen);
    ASSERT_TRUE(data.ok());
    series_ = std::move(data->series);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  Series series_;
};

TEST_F(ParallelQueryTest, SegDiffParallelMatchesSerialAcrossModes) {
  SegDiffOptions options;
  options.eps = 0.2;
  options.window_s = 4 * 3600.0;
  auto index = SegDiffIndex::Open(path_, options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ASSERT_TRUE((*index)->IngestSeries(series_).ok());

  struct ModeCase {
    const char* name;
    QueryMode mode;
    bool fused;
  };
  const ModeCase cases[] = {
      {"seq", QueryMode::kSeqScan, false},
      {"fused", QueryMode::kSeqScan, true},
      {"index", QueryMode::kIndexScan, false},
      {"auto", QueryMode::kAuto, false},
  };
  const double T = 3600.0;
  for (const ModeCase& c : cases) {
    SCOPED_TRACE(c.name);
    SearchOptions serial;
    serial.mode = c.mode;
    serial.fused_scan = c.fused;
    serial.num_threads = 0;
    SearchOptions parallel = serial;
    parallel.num_threads = 4;

    for (const double V : {-1.0, -3.0}) {
      SearchStats serial_stats, parallel_stats;
      auto a = (*index)->SearchDrops(T, V, serial, &serial_stats);
      auto b = (*index)->SearchDrops(T, V, parallel, &parallel_stats);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      EXPECT_FALSE(a->empty());  // the workload must exercise the path
      EXPECT_EQ(*a, *b);
      ExpectSameStats(serial_stats, parallel_stats);
    }
    {
      SearchStats serial_stats, parallel_stats;
      auto a = (*index)->SearchJumps(T, 1.0, serial, &serial_stats);
      auto b = (*index)->SearchJumps(T, 1.0, parallel, &parallel_stats);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(*a, *b);
      ExpectSameStats(serial_stats, parallel_stats);
    }
  }
}

TEST_F(ParallelQueryTest, SegDiffThreadCountsAgree) {
  // 2, 4, and 8 threads all reduce to the same answer, repeatedly (the
  // repetition shakes out scheduling-dependent merges).
  SegDiffOptions options;
  options.window_s = 4 * 3600.0;
  auto index = SegDiffIndex::Open(path_, options);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE((*index)->IngestSeries(series_).ok());
  SearchOptions serial;
  serial.mode = QueryMode::kSeqScan;
  auto expected = (*index)->SearchDrops(3600.0, -2.0, serial);
  ASSERT_TRUE(expected.ok());
  for (const size_t threads : {2u, 4u, 8u}) {
    for (int rep = 0; rep < 3; ++rep) {
      SearchOptions parallel;
      parallel.mode = QueryMode::kSeqScan;
      parallel.num_threads = threads;
      auto got = (*index)->SearchDrops(3600.0, -2.0, parallel);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*expected, *got) << threads << " threads, rep " << rep;
    }
  }
}

TEST_F(ParallelQueryTest, ExhParallelMatchesSerial) {
  ExhOptions options;
  options.window_s = 2 * 3600.0;
  auto exh = ExhIndex::Open(path_, options);
  ASSERT_TRUE(exh.ok());
  ASSERT_TRUE((*exh)->IngestSeries(series_).ok());
  SearchOptions serial;
  serial.mode = QueryMode::kSeqScan;
  SearchOptions parallel = serial;
  parallel.num_threads = 4;
  SearchStats serial_stats, parallel_stats;
  auto a = (*exh)->SearchDrops(3600.0, -2.0, serial, &serial_stats);
  auto b = (*exh)->SearchDrops(3600.0, -2.0, parallel, &parallel_stats);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(a->empty());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_DOUBLE_EQ((*a)[i].t_start, (*b)[i].t_start);
    EXPECT_DOUBLE_EQ((*a)[i].t_end, (*b)[i].t_end);
    EXPECT_DOUBLE_EQ((*a)[i].dv, (*b)[i].dv);
  }
  ExpectSameStats(serial_stats, parallel_stats);
}

TEST(TransectConcurrentIngestTest, MatchesSerialIngest) {
  // Concurrent per-sensor ingest touches disjoint stores, so it must be
  // indistinguishable from the serial loop — same segments, same feature
  // rows, same search hits.
  const int kSensors = 5;
  const std::string serial_dir =
      UniqueTestPath("transect_ingest", "_serial");
  const std::string parallel_dir =
      UniqueTestPath("transect_ingest", "_parallel");
  std::vector<Series> all_series;
  for (int s = 0; s < kSensors; ++s) {
    CadGeneratorOptions gen;
    gen.num_days = 2;
    gen.cad_events_per_day = 2.0;
    gen.sensor_index = s;
    gen.seed = 20080325 + static_cast<uint64_t>(s);
    auto data = GenerateCadSeries(gen);
    ASSERT_TRUE(data.ok());
    all_series.push_back(std::move(data->series));
  }

  SegDiffOptions options;
  options.window_s = 4 * 3600.0;
  auto serial = TransectIndex::Open(serial_dir, kSensors,
                                    TransectOptions{options});
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE((*serial)->IngestAllSensors(all_series, /*num_threads=*/0).ok());
  auto parallel = TransectIndex::Open(parallel_dir, kSensors,
                                      TransectOptions{options});
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_TRUE(
      (*parallel)->IngestAllSensors(all_series, /*num_threads=*/4).ok());

  for (int s = 0; s < kSensors; ++s) {
    auto a = (*serial)->sensor(s);
    auto b = (*parallel)->sensor(s);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ((*a)->num_segments(), (*b)->num_segments()) << "sensor " << s;
    EXPECT_EQ((*a)->num_observations(), (*b)->num_observations());
    EXPECT_EQ((*a)->GetSizes().feature_rows, (*b)->GetSizes().feature_rows);
  }
  auto serial_hits = (*serial)->SearchDrops(3600.0, -3.0);
  auto parallel_hits = (*parallel)->SearchDrops(3600.0, -3.0);
  ASSERT_TRUE(serial_hits.ok());
  ASSERT_TRUE(parallel_hits.ok());
  EXPECT_EQ(*serial_hits, *parallel_hits);

  serial->reset();
  parallel->reset();
  std::error_code ec;
  std::filesystem::remove_all(serial_dir, ec);
  std::filesystem::remove_all(parallel_dir, ec);
}

TEST(ParallelSeqScanTest, MatchesSerialSeqScan) {
  const std::string path =
      UniqueTestPath("segdiff_parallel_scan");
  std::remove(path.c_str());
  auto db = Database::Open(path, DatabaseOptions{});
  ASSERT_TRUE(db.ok());
  auto schema = DoubleSchema({"dt", "dv"});
  ASSERT_TRUE(schema.ok());
  auto table = (*db)->CreateTable("f", *schema);
  ASSERT_TRUE(table.ok());
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(
        (*table)
            ->InsertDoubles({rng.Uniform(0, 100), rng.Uniform(-10, 10)})
            .ok());
  }
  Predicate predicate;
  predicate.And(0, CmpOp::kLe, 50.0);
  predicate.And(1, CmpOp::kLe, 0.0);

  std::vector<std::pair<double, double>> serial_rows;
  ScanStats serial_stats;
  ASSERT_TRUE(SeqScan(**table, predicate,
                      [&](const char* record, RecordId) {
                        serial_rows.emplace_back(DecodeDoubleColumn(record, 0),
                                                 DecodeDoubleColumn(record, 1));
                        return Status::OK();
                      },
                      &serial_stats)
                  .ok());
  ASSERT_FALSE(serial_rows.empty());

  for (const size_t partitions : {1u, 2u, 4u, 7u}) {
    std::vector<std::vector<std::pair<double, double>>> outs(partitions);
    ScanStats parallel_stats;
    ASSERT_TRUE(ParallelSeqScan(
                    **table, predicate, partitions,
                    [&outs](size_t p) -> RowCallback {
                      auto* sink = &outs[p];
                      return [sink](const char* record, RecordId) {
                        sink->emplace_back(DecodeDoubleColumn(record, 0),
                                           DecodeDoubleColumn(record, 1));
                        return Status::OK();
                      };
                    },
                    &parallel_stats)
                    .ok());
    std::vector<std::pair<double, double>> merged;
    for (const auto& part : outs) {
      merged.insert(merged.end(), part.begin(), part.end());
    }
    // Partitions preserve heap order within themselves and are merged
    // in page order, so the concatenation equals the serial scan.
    EXPECT_EQ(merged, serial_rows) << partitions << " partitions";
    EXPECT_EQ(parallel_stats.rows_scanned, serial_stats.rows_scanned);
  }
  db->reset();
  std::remove(path.c_str());
}

// A failed partitioned scan still reports what every partition read.
// Partition 0 is always claimed before partition 1, and a claimed
// partition runs to its end, so when the sink fails on the table's last
// row (the last partition's) both partitions' counters are complete and
// must equal the serial scan's under the same sink.
TEST(ParallelSeqScanTest, FailedScanReportsEveryPartitionsStats) {
  const std::string path = UniqueTestPath("segdiff_parallel_scan_fail");
  std::remove(path.c_str());
  auto db = Database::Open(path, DatabaseOptions{});
  ASSERT_TRUE(db.ok());
  auto schema = DoubleSchema({"t", "v"});
  ASSERT_TRUE(schema.ok());
  auto table = (*db)->CreateTable("f", *schema);
  ASSERT_TRUE(table.ok());
  constexpr int kRows = 4000;
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE((*table)
                    ->InsertDoubles({static_cast<double>(i),
                                     i % 2 == 1 ? 1.0 : -1.0})
                    .ok());
  }
  // Odd rows from 1000 on: the first pages are pruned, the last row
  // matches.
  Predicate predicate;
  predicate.And(0, CmpOp::kGe, 1000.0).And(1, CmpOp::kGt, 0.0);
  const RowCallback failing = [](const char* record, RecordId) {
    return DecodeDoubleColumn(record, 0) == kRows - 1
               ? Status::ResourceExhausted("sink full")
               : Status::OK();
  };

  ScanStats serial;
  EXPECT_TRUE(SeqScan(**table, predicate, failing, &serial)
                  .IsResourceExhausted());
  EXPECT_EQ(serial.rows_scanned + serial.rows_pruned,
            static_cast<uint64_t>(kRows));
  EXPECT_GT(serial.pages_pruned, 0u);
  EXPECT_EQ(serial.rows_matched, static_cast<uint64_t>(kRows - 1000) / 2);

  ScanStats parallel;
  EXPECT_TRUE(ParallelSeqScan(
                  **table, predicate, 2,
                  [&failing](size_t) { return failing; }, &parallel)
                  .IsResourceExhausted());
  EXPECT_EQ(parallel.rows_scanned, serial.rows_scanned);
  EXPECT_EQ(parallel.rows_pruned, serial.rows_pruned);
  EXPECT_EQ(parallel.pages_scanned, serial.pages_scanned);
  EXPECT_EQ(parallel.pages_pruned, serial.pages_pruned);
  EXPECT_EQ(parallel.index_entries_scanned, serial.index_entries_scanned);
  EXPECT_EQ(parallel.heap_fetches, serial.heap_fetches);
  EXPECT_EQ(parallel.rows_matched, serial.rows_matched);
  EXPECT_EQ(parallel.pages_quarantined, serial.pages_quarantined);
  EXPECT_EQ(parallel.rows_quarantined, serial.rows_quarantined);
  db->reset();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace segdiff
