// Streaming-ingest contract tests: observation-at-a-time ingest is
// byte-identical to one-shot batch ingest (any chunking, one final
// flush), and ingest state survives close/reopen so appending resumes
// exactly where it left off. A store resumes from its ingest-state blob,
// or as fresh when it has neither a blob nor rows; rows without a blob
// are refused.

#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_paths.h"

#include "common/coding.h"
#include "segdiff/exh_index.h"
#include "segdiff/segdiff_index.h"
#include "storage/db.h"
#include "ts/generator.h"

namespace segdiff {
namespace {

Series MakeSeries(int num_days, uint64_t seed = 20080325) {
  CadGeneratorOptions gen;
  gen.num_days = num_days;
  gen.cad_events_per_day = 1.0;
  gen.seed = seed;
  auto data = GenerateCadSeries(gen);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  return std::move(data->series);
}

/// Raw records of one table, in heap (= insertion) order.
std::vector<std::string> TableRecords(Database* db, const std::string& name) {
  std::vector<std::string> records;
  auto table = db->GetTable(name);
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  const size_t bytes = (*table)->schema().num_columns() * 8;
  Status scan = (*table)->Scan(
      [&](const char* record, RecordId, bool* keep_going) -> Status {
        *keep_going = true;
        records.emplace_back(record, bytes);
        return Status::OK();
      });
  EXPECT_TRUE(scan.ok()) << scan.ToString();
  return records;
}

const char* const kSegDiffTables[] = {"segments", "drop1", "drop2", "drop3",
                                      "jump1",    "jump2", "jump3"};

/// Every SegDiff table of `actual` byte-identical to `expected`.
void ExpectSameTables(SegDiffIndex* actual, SegDiffIndex* expected) {
  for (const char* name : kSegDiffTables) {
    const std::vector<std::string> a = TableRecords(actual->db(), name);
    const std::vector<std::string> e = TableRecords(expected->db(), name);
    ASSERT_EQ(a.size(), e.size()) << "row count mismatch in " << name;
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], e[i]) << "record " << i << " differs in " << name;
    }
  }
  EXPECT_EQ(actual->num_observations(), expected->num_observations());
  EXPECT_EQ(actual->num_segments(), expected->num_segments());
  const SegDiffSizes sa = actual->GetSizes();
  const SegDiffSizes se = expected->GetSizes();
  EXPECT_EQ(sa.feature_rows, se.feature_rows);
  EXPECT_EQ(sa.feature_bytes, se.feature_bytes);
}

void ExpectSameSearches(SegDiffIndex* actual, SegDiffIndex* expected) {
  for (const double T : {1800.0, 3600.0, 2 * 3600.0}) {
    auto a = actual->SearchDrops(T, -3.0);
    auto e = expected->SearchDrops(T, -3.0);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    EXPECT_EQ(*a, *e) << "drop results differ at T=" << T;
  }
}

class StreamingIngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    batch_path_ = UniqueTestPath("streaming", "_batch.db");
    stream_path_ = UniqueTestPath("streaming", "_stream.db");
    std::remove(batch_path_.c_str());
    std::remove(stream_path_.c_str());
    series_ = MakeSeries(4);
  }
  void TearDown() override {
    std::remove(batch_path_.c_str());
    std::remove(stream_path_.c_str());
  }

  std::unique_ptr<SegDiffIndex> OpenStore(const std::string& path,
                                          const SegDiffOptions& options) {
    auto store = SegDiffIndex::Open(path, options);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return std::move(store).value();
  }

  /// The oracle: one-shot batch ingest of the whole series.
  std::unique_ptr<SegDiffIndex> BuildBatch(const SegDiffOptions& options) {
    auto store = OpenStore(batch_path_, options);
    Status ingest = store->IngestSeries(series_);
    EXPECT_TRUE(ingest.ok()) << ingest.ToString();
    return store;
  }

  std::string batch_path_;
  std::string stream_path_;
  Series series_;
};

TEST_F(StreamingIngestTest, ObservationAtATimeMatchesBatch) {
  SegDiffOptions options;
  auto batch = BuildBatch(options);
  auto stream = OpenStore(stream_path_, options);
  for (const Sample& sample : series_) {
    ASSERT_TRUE(stream->AppendObservation(sample.t, sample.v).ok());
  }
  ASSERT_TRUE(stream->FlushPending().ok());
  ExpectSameTables(stream.get(), batch.get());
  ExpectSameSearches(stream.get(), batch.get());
}

TEST_F(StreamingIngestTest, SearchableMidStreamWithoutFlush) {
  SegDiffOptions options;
  auto stream = OpenStore(stream_path_, options);
  // Append without ever flushing: everything but the open trailing
  // segment is already searchable, and no error surfaces mid-stream.
  for (size_t i = 0; i < series_.size() / 2; ++i) {
    ASSERT_TRUE(stream->AppendObservation(series_[i].t, series_[i].v).ok());
  }
  auto hits = stream->SearchDrops(3600.0, -3.0);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_GT(stream->num_segments(), 0u);
}

TEST_F(StreamingIngestTest, RandomChunksMatchBatch) {
  SegDiffOptions options;
  auto batch = BuildBatch(options);
  // Property: ANY chunking with one final flush is byte-identical to the
  // one-shot batch. Deterministic seed so failures reproduce.
  std::mt19937 rng(20080325);
  std::uniform_int_distribution<size_t> chunk_len(1, 97);
  auto stream = OpenStore(stream_path_, options);
  size_t pos = 0;
  while (pos < series_.size()) {
    const size_t len = std::min(chunk_len(rng), series_.size() - pos);
    if (len == 1) {
      ASSERT_TRUE(
          stream->AppendObservation(series_[pos].t, series_[pos].v).ok());
    } else {
      Series chunk;
      for (size_t i = pos; i < pos + len; ++i) {
        ASSERT_TRUE(chunk.Append(series_[i]).ok());
      }
      // AppendSeries (unlike IngestSeries) does not flush, so chunk
      // boundaries leave no trace in the segmentation.
      ASSERT_TRUE(stream->AppendSeries(chunk).ok());
    }
    pos += len;
  }
  ASSERT_TRUE(stream->FlushPending().ok());
  ExpectSameTables(stream.get(), batch.get());
  ExpectSameSearches(stream.get(), batch.get());
}

TEST_F(StreamingIngestTest, ChunkedIngestSeriesKeepsApproximationTight) {
  // IngestSeries flushes per call; the flushed boundary must still chain
  // segments contiguously (anchor = previous endpoint), keeping the
  // piecewise approximation gap-free across chunks.
  SegDiffOptions options;
  auto stream = OpenStore(stream_path_, options);
  const size_t half = series_.size() / 2;
  Series first, second;
  for (size_t i = 0; i < series_.size(); ++i) {
    ASSERT_TRUE((i < half ? first : second).Append(series_[i]).ok());
  }
  ASSERT_TRUE(stream->IngestSeries(first).ok());
  ASSERT_TRUE(stream->IngestSeries(second).ok());
  const std::vector<std::string> segments =
      TableRecords(stream->db(), "segments");
  ASSERT_GT(segments.size(), 1u);
  for (size_t i = 1; i < segments.size(); ++i) {
    const double prev_end_t = DecodeDouble(segments[i - 1].data() + 16);
    const double start_t = DecodeDouble(segments[i].data());
    EXPECT_EQ(prev_end_t, start_t) << "gap before segment " << i;
  }
}

TEST_F(StreamingIngestTest, ReopenResumesAppending) {
  SegDiffOptions options;
  auto batch = BuildBatch(options);
  const size_t half = series_.size() / 2;
  {
    auto stream = OpenStore(stream_path_, options);
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(stream->AppendObservation(series_[i].t, series_[i].v).ok());
    }
    ASSERT_TRUE(stream->Checkpoint().ok());
  }
  // Reopen with DEFAULT options: eps/window/collect flags come from the
  // store, and the open segment + pair window resume mid-flight.
  SegDiffOptions reopen;
  reopen.create_if_missing = false;
  auto stream = OpenStore(stream_path_, reopen);
  EXPECT_EQ(stream->num_observations(), half);
  for (size_t i = half; i < series_.size(); ++i) {
    ASSERT_TRUE(stream->AppendObservation(series_[i].t, series_[i].v).ok());
  }
  ASSERT_TRUE(stream->FlushPending().ok());
  ExpectSameTables(stream.get(), batch.get());
  ExpectSameSearches(stream.get(), batch.get());
}

TEST_F(StreamingIngestTest, DestructorPersistsIngestState) {
  SegDiffOptions options;
  auto batch = BuildBatch(options);
  const size_t half = series_.size() / 2;
  {
    auto stream = OpenStore(stream_path_, options);
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(stream->AppendObservation(series_[i].t, series_[i].v).ok());
    }
    // No explicit Checkpoint: destruction alone must persist the state.
  }
  SegDiffOptions reopen;
  reopen.create_if_missing = false;
  auto stream = OpenStore(stream_path_, reopen);
  EXPECT_EQ(stream->num_observations(), half);
  for (size_t i = half; i < series_.size(); ++i) {
    ASSERT_TRUE(stream->AppendObservation(series_[i].t, series_[i].v).ok());
  }
  ASSERT_TRUE(stream->FlushPending().ok());
  ExpectSameTables(stream.get(), batch.get());
}

TEST_F(StreamingIngestTest, ReopenAdoptsPersistedBuildParameters) {
  SegDiffOptions build;
  build.eps = 0.5;
  build.window_s = 4 * 3600.0;
  build.collect_jumps = false;
  build.build_indexes = false;
  {
    auto stream = OpenStore(stream_path_, build);
    ASSERT_TRUE(stream->IngestSeries(series_).ok());
  }
  SegDiffOptions reopen;  // defaults everywhere
  reopen.create_if_missing = false;
  auto stream = OpenStore(stream_path_, reopen);
  EXPECT_DOUBLE_EQ(stream->options().eps, 0.5);
  EXPECT_DOUBLE_EQ(stream->options().window_s, 4 * 3600.0);
  EXPECT_FALSE(stream->options().collect_jumps);
  EXPECT_TRUE(stream->options().collect_drops);
  EXPECT_FALSE(stream->options().build_indexes);
  // An index scan must be rejected, proving the adopted build_indexes
  // (not the passed default true) governs the search path.
  SearchOptions search;
  search.mode = QueryMode::kIndexScan;
  EXPECT_TRUE(
      stream->SearchDrops(3600.0, -3.0, search).status().IsInvalidArgument());
}

TEST_F(StreamingIngestTest, LegacyStoreResumesFromSegmentDirectory) {
  SegDiffOptions options;
  {
    // Creates the tables; closing saves an ingest-state blob, stripped
    // below through a raw database handle — simulating a store written
    // before ingest-state persistence existed (tables + catalog only).
    auto stream = OpenStore(stream_path_, options);
  }
  {
    DatabaseOptions raw_options;
    raw_options.create_if_missing = false;
    auto raw = Database::Open(stream_path_, raw_options);
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    EXPECT_TRUE((*raw)->EraseMeta("segdiff.ingest").value_or(false));
    auto segments = (*raw)->GetTable("segments");
    ASSERT_TRUE(segments.ok()) << segments.status().ToString();
    EXPECT_EQ((*segments)->row_count(), 0u);
    ASSERT_TRUE((*raw)->Checkpoint().ok());
  }
  // An empty segment directory is a complete resume point: the store
  // opens as fresh, and appending the whole series reproduces the batch
  // tables, counters included. A non-empty directory without a blob is
  // refused (OutOfOrderSegmentDirectoryRejected and
  // RowsWithoutIngestStateRefuseToOpen below).
  SegDiffOptions reopen;
  reopen.create_if_missing = false;
  auto stream = OpenStore(stream_path_, reopen);
  EXPECT_EQ(stream->num_observations(), 0u);
  Status st = stream->IngestSeries(series_);
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto batch = BuildBatch(options);
  ExpectSameTables(stream.get(), batch.get());
  ExpectSameSearches(stream.get(), batch.get());
}

TEST_F(StreamingIngestTest, StaleTimestampRejected) {
  SegDiffOptions options;
  auto stream = OpenStore(stream_path_, options);
  ASSERT_TRUE(stream->AppendObservation(1000.0, 12.0).ok());
  ASSERT_TRUE(stream->AppendObservation(1300.0, 12.1).ok());
  EXPECT_TRUE(stream->AppendObservation(1300.0, 12.2).IsInvalidArgument());
  EXPECT_TRUE(stream->AppendObservation(900.0, 12.2).IsInvalidArgument());
}

TEST_F(StreamingIngestTest, IngestStateSurvivesCompaction) {
  SegDiffOptions options;
  const size_t half = series_.size() / 2;
  {
    auto stream = OpenStore(stream_path_, options);
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(stream->AppendObservation(series_[i].t, series_[i].v).ok());
    }
    // Deliberately no Checkpoint first: Compact() itself must save the
    // ingest state, so the compacted store is a consistent resume point
    // even when compaction races ahead of any explicit checkpoint.
    ASSERT_TRUE(stream->Compact(batch_path_ + ".compact").ok());
  }
  SegDiffOptions reopen;
  reopen.create_if_missing = false;
  auto compacted = OpenStore(batch_path_ + ".compact", reopen);
  EXPECT_EQ(compacted->num_observations(), half);
  ASSERT_TRUE(
      compacted->AppendObservation(series_[half].t, series_[half].v).ok());
  std::remove((batch_path_ + ".compact").c_str());
}

TEST_F(StreamingIngestTest, CorruptIngestStateFailsOpenCleanly) {
  SegDiffOptions options;
  {
    auto stream = OpenStore(stream_path_, options);
    for (size_t i = 0; i < series_.size() / 2; ++i) {
      ASSERT_TRUE(stream->AppendObservation(series_[i].t, series_[i].v).ok());
    }
  }
  const std::string garbage = "garbage";
  {
    DatabaseOptions raw_options;
    raw_options.create_if_missing = false;
    auto raw = Database::Open(stream_path_, raw_options);
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    (*raw)->PutMeta("segdiff.ingest", garbage);
    ASSERT_TRUE((*raw)->Checkpoint().ok());
  }
  SegDiffOptions reopen;
  reopen.create_if_missing = false;
  // The corruption surfaces as a clean error — no crash in the
  // partially-built index's destructor...
  auto failed = SegDiffIndex::Open(stream_path_, reopen);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsCorruption()) << failed.status().ToString();
  // ...and the failed open left the store byte-for-byte alone: the bad
  // blob is still there to diagnose, not silently replaced by a default
  // state that would mask the corruption on the next open.
  DatabaseOptions raw_options;
  raw_options.create_if_missing = false;
  auto raw = Database::Open(stream_path_, raw_options);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  auto blob = (*raw)->GetMeta("segdiff.ingest");
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  EXPECT_EQ(*blob, garbage);
}

TEST_F(StreamingIngestTest, OutOfOrderSegmentDirectoryRejected) {
  SegDiffOptions options;
  {
    auto stream = OpenStore(stream_path_, options);
    Series first;
    for (size_t i = 0; i < series_.size() / 2; ++i) {
      ASSERT_TRUE(first.Append(series_[i]).ok());
    }
    ASSERT_TRUE(stream->IngestSeries(first).ok());
  }
  {
    // Simulate a corrupted legacy store: no ingest blob, and a segment
    // appended out of temporal order at the end of the directory.
    DatabaseOptions raw_options;
    raw_options.create_if_missing = false;
    auto raw = Database::Open(stream_path_, raw_options);
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    EXPECT_TRUE((*raw)->EraseMeta("segdiff.ingest").value_or(false));
    auto segments = (*raw)->GetTable("segments");
    ASSERT_TRUE(segments.ok());
    ASSERT_TRUE((*segments)->InsertDoubles({1.0, 0.0, 2.0, 0.0}).ok());
    ASSERT_TRUE((*raw)->Checkpoint().ok());
  }
  SegDiffOptions reopen;
  reopen.create_if_missing = false;
  auto failed = SegDiffIndex::Open(stream_path_, reopen);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsCorruption()) << failed.status().ToString();
  // Refused for the missing blob, before the directory is ever read.
  EXPECT_NE(failed.status().ToString().find("segdiff.ingest"),
            std::string::npos)
      << failed.status().ToString();
}

// Every checkpoint that makes rows durable saves the ingest-state blob
// first, so a store holding rows without one has no resume point: both
// engines refuse to open it, naming the missing blob, and leave its
// files exactly as found.
TEST_F(StreamingIngestTest, RowsWithoutIngestStateRefuseToOpen) {
  const std::string exh_path = UniqueTestPath("streaming", "_exh.db");
  std::remove(exh_path.c_str());
  {
    auto stream = OpenStore(stream_path_, SegDiffOptions{});
    Series first;
    for (size_t i = 0; i < series_.size() / 2; ++i) {
      ASSERT_TRUE(first.Append(series_[i]).ok());
    }
    ASSERT_TRUE(stream->IngestSeries(first).ok());
    ExhOptions exh_options;
    exh_options.window_s = 3600.0;
    auto exh = ExhIndex::Open(exh_path, exh_options);
    ASSERT_TRUE(exh.ok()) << exh.status().ToString();
    for (size_t i = 0; i < 50; ++i) {
      ASSERT_TRUE((*exh)->AppendObservation(series_[i].t, series_[i].v).ok());
    }
  }
  auto file_bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
  };
  for (const auto& [path, key] :
       {std::pair<std::string, std::string>{stream_path_, "segdiff.ingest"},
        {exh_path, "exh.ingest"}}) {
    // The index handles save their blobs on close, so strip them
    // afterwards through a raw database handle.
    {
      DatabaseOptions raw_options;
      raw_options.create_if_missing = false;
      auto raw = Database::Open(path, raw_options);
      ASSERT_TRUE(raw.ok()) << raw.status().ToString();
      EXPECT_TRUE((*raw)->EraseMeta(key).value_or(false));
      ASSERT_TRUE((*raw)->Checkpoint().ok());
    }
    const std::string before = file_bytes(path);
    Status refused;
    if (path == stream_path_) {
      SegDiffOptions reopen;
      reopen.create_if_missing = false;
      refused = SegDiffIndex::Open(path, reopen).status();
    } else {
      refused = ExhIndex::Open(path, ExhOptions{}).status();
    }
    EXPECT_TRUE(refused.IsCorruption()) << refused.ToString();
    EXPECT_NE(refused.ToString().find(key), std::string::npos)
        << refused.ToString();
    EXPECT_EQ(file_bytes(path), before) << "failed open modified " << path;
  }
  std::remove(exh_path.c_str());
}

// ---------------------------------------------------------------------
// Exh baseline: same streaming + resume contract, one table.

class ExhStreamingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    batch_path_ = UniqueTestPath("exh_streaming", "_batch.db");
    stream_path_ = UniqueTestPath("exh_streaming", "_stream.db");
    std::remove(batch_path_.c_str());
    std::remove(stream_path_.c_str());
    series_ = MakeSeries(2);
  }
  void TearDown() override {
    std::remove(batch_path_.c_str());
    std::remove(stream_path_.c_str());
  }

  std::unique_ptr<ExhIndex> OpenStore(const std::string& path,
                                      const ExhOptions& options) {
    auto store = ExhIndex::Open(path, options);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return std::move(store).value();
  }

  void ExpectSameExhTables(ExhIndex* actual, ExhIndex* expected) {
    const std::vector<std::string> a = TableRecords(actual->db(), "exh");
    const std::vector<std::string> e = TableRecords(expected->db(), "exh");
    ASSERT_EQ(a.size(), e.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], e[i]) << "exh record " << i << " differs";
    }
    EXPECT_EQ(actual->num_observations(), expected->num_observations());
  }

  std::string batch_path_;
  std::string stream_path_;
  Series series_;
};

TEST_F(ExhStreamingTest, ObservationAtATimeMatchesBatch) {
  ExhOptions options;
  options.window_s = 3600.0;  // keep the O(n * n_w) table small
  auto batch = OpenStore(batch_path_, options);
  ASSERT_TRUE(batch->IngestSeries(series_).ok());
  auto stream = OpenStore(stream_path_, options);
  for (const Sample& sample : series_) {
    ASSERT_TRUE(stream->AppendObservation(sample.t, sample.v).ok());
  }
  ASSERT_TRUE(stream->FlushPending().ok());  // no-op, but part of the API
  ExpectSameExhTables(stream.get(), batch.get());
}

TEST_F(ExhStreamingTest, ReopenResumesAppending) {
  ExhOptions options;
  options.window_s = 3600.0;
  auto batch = OpenStore(batch_path_, options);
  ASSERT_TRUE(batch->IngestSeries(series_).ok());
  const size_t half = series_.size() / 2;
  {
    auto stream = OpenStore(stream_path_, options);
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(stream->AppendObservation(series_[i].t, series_[i].v).ok());
    }
    // Destructor persists the window.
  }
  ExhOptions reopen;  // window_s adopted from the store
  auto stream = OpenStore(stream_path_, reopen);
  EXPECT_EQ(stream->num_observations(), half);
  EXPECT_DOUBLE_EQ(stream->options().window_s, 3600.0);
  for (size_t i = half; i < series_.size(); ++i) {
    ASSERT_TRUE(stream->AppendObservation(series_[i].t, series_[i].v).ok());
  }
  ExpectSameExhTables(stream.get(), batch.get());
}

TEST_F(ExhStreamingTest, CorruptIngestStateFailsOpenCleanly) {
  ExhOptions options;
  options.window_s = 3600.0;
  {
    auto stream = OpenStore(stream_path_, options);
    for (size_t i = 0; i < series_.size() / 2; ++i) {
      ASSERT_TRUE(stream->AppendObservation(series_[i].t, series_[i].v).ok());
    }
  }
  const std::string garbage = "garbage";
  {
    DatabaseOptions raw_options;
    raw_options.create_if_missing = false;
    auto raw = Database::Open(stream_path_, raw_options);
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    (*raw)->PutMeta("exh.ingest", garbage);
    ASSERT_TRUE((*raw)->Checkpoint().ok());
  }
  auto failed = ExhIndex::Open(stream_path_, options);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsCorruption()) << failed.status().ToString();
  // The failed open neither crashed nor replaced the bad blob with a
  // default (empty-window) state.
  DatabaseOptions raw_options;
  raw_options.create_if_missing = false;
  auto raw = Database::Open(stream_path_, raw_options);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  auto blob = (*raw)->GetMeta("exh.ingest");
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  EXPECT_EQ(*blob, garbage);
}

}  // namespace
}  // namespace segdiff
