// Sharded TransectIndex: the scatter-gather fan-out must be
// indistinguishable from the serial loop (byte-identical hits and
// deterministic SearchStats), the StoreLru must bound how many stores
// are open at once — including under concurrent searches on a tiny
// cache (TSan exercises the pin/evict races) — a corrupt shard catalog
// must fail loudly, one shared deadline must stop the whole fan-out
// promptly, and directory creation must flow through the Vfs so fault
// injection covers it.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_paths.h"

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/stopwatch.h"
#include "segdiff/transect_index.h"
#include "storage/fault_vfs.h"
#include "ts/generator.h"

namespace segdiff {
namespace {

constexpr int kSensors = 12;

/// Deterministic fields only: seconds and admission_wait_ms are
/// wall-clock and legitimately vary run to run.
void ExpectSameStats(const SearchStats& a, const SearchStats& b) {
  EXPECT_EQ(a.scan.rows_scanned, b.scan.rows_scanned);
  EXPECT_EQ(a.scan.rows_pruned, b.scan.rows_pruned);
  EXPECT_EQ(a.scan.pages_scanned, b.scan.pages_scanned);
  EXPECT_EQ(a.scan.pages_pruned, b.scan.pages_pruned);
  EXPECT_EQ(a.scan.index_entries_scanned, b.scan.index_entries_scanned);
  EXPECT_EQ(a.scan.heap_fetches, b.scan.heap_fetches);
  EXPECT_EQ(a.scan.rows_matched, b.scan.rows_matched);
  EXPECT_EQ(a.scan.pages_quarantined, b.scan.pages_quarantined);
  EXPECT_EQ(a.scan.rows_quarantined, b.scan.rows_quarantined);
  EXPECT_EQ(a.queries_issued, b.queries_issued);
  EXPECT_EQ(a.pairs_returned, b.pairs_returned);
  EXPECT_EQ(a.snapshot_observations, b.snapshot_observations);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.partial, b.partial);
  EXPECT_EQ(a.result_bytes_peak, b.result_bytes_peak);
}

class TransectShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = UniqueTestPath("transect_shard", "");
    Cleanup();
    CadGeneratorOptions gen;
    gen.num_days = 2;
    gen.cad_events_per_day = 1.0;
    auto data = GenerateCadTransect(gen, kSensors);
    ASSERT_TRUE(data.ok());
    for (auto& sensor : *data) {
      all_series_.push_back(std::move(sensor.series));
    }
  }
  void TearDown() override { Cleanup(); }
  void Cleanup() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  TransectOptions SmallStores() const {
    TransectOptions options;
    options.store.window_s = 4 * 3600.0;
    options.store.buffer_pool_pages = 64;
    options.sensors_per_shard = 3;  // kSensors/3 = 4 shards
    return options;
  }

  Result<std::unique_ptr<TransectIndex>> BuildTransect(
      const TransectOptions& options) {
    auto transect = TransectIndex::Open(dir_, kSensors, options);
    if (!transect.ok()) {
      return transect.status();
    }
    Status status = (*transect)->IngestAllSensors(all_series_, 4);
    if (!status.ok()) {
      return status;
    }
    return transect;
  }

  std::string dir_;
  std::vector<Series> all_series_;
};

TEST_F(TransectShardTest, ParallelSearchMatchesSerialByteForByte) {
  auto transect = BuildTransect(SmallStores());
  ASSERT_TRUE(transect.ok()) << transect.status().ToString();

  SearchOptions serial;
  serial.num_threads = 0;
  TransectSearchStats serial_stats;
  auto serial_hits =
      (*transect)->SearchDrops(3600.0, -3.0, serial, &serial_stats);
  ASSERT_TRUE(serial_hits.ok()) << serial_hits.status().ToString();
  ASSERT_FALSE(serial_hits->empty());

  for (const size_t threads : {2u, 4u, 8u}) {
    SearchOptions parallel;
    parallel.num_threads = threads;
    TransectSearchStats parallel_stats;
    auto parallel_hits =
        (*transect)->SearchDrops(3600.0, -3.0, parallel, &parallel_stats);
    ASSERT_TRUE(parallel_hits.ok()) << parallel_hits.status().ToString();
    EXPECT_EQ(*serial_hits, *parallel_hits) << threads << " threads";
    ExpectSameStats(serial_stats, parallel_stats);
  }

  TransectSearchStats serial_jump_stats;
  auto serial_jumps =
      (*transect)->SearchJumps(2 * 3600.0, 2.0, serial, &serial_jump_stats);
  ASSERT_TRUE(serial_jumps.ok());
  SearchOptions parallel;
  parallel.num_threads = 4;
  TransectSearchStats parallel_jump_stats;
  auto parallel_jumps = (*transect)->SearchJumps(2 * 3600.0, 2.0, parallel,
                                                 &parallel_jump_stats);
  ASSERT_TRUE(parallel_jumps.ok());
  EXPECT_EQ(*serial_jumps, *parallel_jumps);
  ExpectSameStats(serial_jump_stats, parallel_jump_stats);
}

TEST_F(TransectShardTest, LruBoundsOpenStoresAndReopensTransparently) {
  TransectOptions options = SmallStores();
  options.max_open_stores = 2;
  auto transect = BuildTransect(options);
  ASSERT_TRUE(transect.ok()) << transect.status().ToString();

  StoreLruStats cache = (*transect)->store_stats();
  EXPECT_LE(cache.peak_open, 2u);
  EXPECT_GT(cache.evictions, 0u);  // 12 stores through 2 slots

  // Evicted stores were checkpointed and reopen on demand with the same
  // contents: the bounded transect returns exactly what an unbounded
  // one sees.
  SearchOptions fan_out;
  fan_out.num_threads = 4;  // clamped to max_open_stores internally
  TransectSearchStats bounded_stats;
  auto bounded =
      (*transect)->SearchDrops(3600.0, -3.0, fan_out, &bounded_stats);
  ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();
  ASSERT_FALSE(bounded->empty());
  EXPECT_LE((*transect)->store_stats().peak_open, 2u);

  transect->reset();
  TransectOptions unbounded = SmallStores();
  auto reopened = TransectIndex::Open(dir_, kSensors, unbounded);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  TransectSearchStats unbounded_stats;
  auto all_open =
      (*reopened)->SearchDrops(3600.0, -3.0, {}, &unbounded_stats);
  ASSERT_TRUE(all_open.ok());
  EXPECT_EQ(*bounded, *all_open);
  ExpectSameStats(bounded_stats, unbounded_stats);
}

TEST_F(TransectShardTest, StreamingAppendsSurviveEviction) {
  TransectOptions options = SmallStores();
  options.max_open_stores = 2;
  auto transect = TransectIndex::Open(dir_, kSensors, options);
  ASSERT_TRUE(transect.ok()) << transect.status().ToString();

  // Interleave appends across every sensor so each store is repeatedly
  // evicted (checkpoint + close) with an open trailing segment, then
  // reopened to continue it.
  const Series& series = all_series_[0];
  const size_t count = std::min<size_t>(series.size(), 150);
  for (size_t i = 0; i < count; ++i) {
    for (int s = 0; s < kSensors; ++s) {
      ASSERT_TRUE(
          (*transect)
              ->AppendSensorObservation(s, series[i].t, series[i].v)
              .ok());
    }
  }
  ASSERT_TRUE((*transect)->FlushAllPending().ok());
  EXPECT_LE((*transect)->store_stats().peak_open, 2u);

  // Every sensor saw the same observations, so every sensor must hold
  // the same number of them — eviction lost nothing.
  for (int s = 0; s < kSensors; ++s) {
    auto store = (*transect)->sensor(s);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ((*store)->num_observations(), count) << "sensor " << s;
  }
}

TEST_F(TransectShardTest, ConcurrentSearchesOnTinyCacheStayCorrect) {
  TransectOptions options = SmallStores();
  options.max_open_stores = 2;
  auto transect = BuildTransect(options);
  ASSERT_TRUE(transect.ok()) << transect.status().ToString();

  auto baseline = (*transect)->SearchDrops(3600.0, -3.0);
  ASSERT_TRUE(baseline.ok());
  ASSERT_FALSE(baseline->empty());

  // Searchers force constant evict/reopen churn through the 2-slot
  // cache while a maintenance thread checkpoints — the races TSan is
  // here to catch: pin vs evict, concurrent open of one sensor, LRU
  // list surgery.
  constexpr int kSearchers = 3;
  constexpr int kRounds = 3;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kSearchers; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        SearchOptions fan_out;
        fan_out.num_threads = 2;
        auto hits = (*transect)->SearchDrops(3600.0, -3.0, fan_out);
        if (!hits.ok() || *hits != *baseline) {
          failures.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int round = 0; round < kRounds; ++round) {
      if (!(*transect)->Checkpoint().ok()) {
        failures.fetch_add(1);
      }
    }
  });
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE((*transect)->store_stats().peak_open, 2u);
}

TEST_F(TransectShardTest, CorruptCatalogFailsLoudly) {
  {
    auto transect = TransectIndex::Open(dir_, kSensors, SmallStores());
    ASSERT_TRUE(transect.ok()) << transect.status().ToString();
  }
  const std::string manifest =
      dir_ + "/" + ShardCatalog::kManifestName;

  // Flip one byte mid-file: the CRC must catch it.
  {
    FILE* f = std::fopen(manifest.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 10, SEEK_SET), 0);
    const int original = std::fgetc(f);
    ASSERT_NE(original, EOF);
    ASSERT_EQ(std::fseek(f, 10, SEEK_SET), 0);
    std::fputc(original ^ 0x40, f);
    std::fclose(f);
  }
  auto corrupt = TransectIndex::Open(dir_, kSensors, SmallStores());
  ASSERT_FALSE(corrupt.ok());
  EXPECT_TRUE(corrupt.status().IsCorruption())
      << corrupt.status().ToString();

  // Truncation (a torn manifest write) is corruption too, not NotFound.
  {
    FILE* f = std::fopen(manifest.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(::ftruncate(::fileno(f), 7), 0);
    std::fclose(f);
  }
  auto torn = TransectIndex::Open(dir_, kSensors, SmallStores());
  ASSERT_FALSE(torn.ok());
  EXPECT_TRUE(torn.status().IsCorruption()) << torn.status().ToString();

  // A CRC-valid one-shard manifest whose shard has no directory name
  // (dir_len 0): its stores would resolve into the root.
  {
    std::string raw = "SDSHRD01";
    char field[4];
    for (const uint32_t v : {uint32_t{kSensors}, uint32_t{kSensors}, 1u,
                             0u, uint32_t{kSensors}}) {
      EncodeFixed32(field, v);
      raw.append(field, sizeof(field));
    }
    raw.append(2, '\0');  // u16 dir_len = 0, no name bytes
    EncodeFixed32(field, Crc32c(raw.data(), raw.size()));
    raw.append(field, sizeof(field));
    FILE* f = std::fopen(manifest.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(raw.data(), 1, raw.size(), f), raw.size());
    std::fclose(f);
  }
  auto unnamed = TransectIndex::Open(dir_, kSensors, SmallStores());
  ASSERT_FALSE(unnamed.ok());
  EXPECT_TRUE(unnamed.status().IsCorruption())
      << unnamed.status().ToString();
}

TEST_F(TransectShardTest, ReopenValidatesSensorCountAgainstCatalog) {
  {
    auto transect = TransectIndex::Open(dir_, kSensors, SmallStores());
    ASSERT_TRUE(transect.ok());
  }
  auto mismatch =
      TransectIndex::Open(dir_, kSensors + 1, SmallStores());
  ASSERT_FALSE(mismatch.ok());
  EXPECT_TRUE(mismatch.status().IsInvalidArgument());

  // <= 0 on reopen adopts the persisted count (CLI convenience).
  auto adopted = TransectIndex::Open(dir_, 0, SmallStores());
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  EXPECT_EQ((*adopted)->sensor_count(), kSensors);
}

TEST_F(TransectShardTest, SharedDeadlineStopsTheWholeFanOutPromptly) {
  auto transect = BuildTransect(SmallStores());
  ASSERT_TRUE(transect.ok()) << transect.status().ToString();

  SearchOptions governed;
  governed.num_threads = 4;
  governed.deadline = Deadline::AfterMillis(0);
  Stopwatch watch;
  auto expired = (*transect)->SearchDrops(3600.0, -3.0, governed);
  ASSERT_FALSE(expired.ok());
  EXPECT_TRUE(expired.status().IsDeadlineExceeded())
      << expired.status().ToString();
  // Promptly: nowhere near the time a full 12-sensor scan takes.
  EXPECT_LT(watch.ElapsedSeconds(), 5.0);

  // The expired search left no pins behind; the transect still works.
  auto after = (*transect)->SearchDrops(3600.0, -3.0, {});
  EXPECT_TRUE(after.ok());
}

TEST_F(TransectShardTest, DirectoryCreationGoesThroughTheVfs) {
  FaultInjectionVfs vfs;
  TransectOptions options = SmallStores();
  options.store.vfs = &vfs;
  options.store.wal = false;  // keep the store simple under the wrapper

  // Root + 4 shard directories, all through the Vfs.
  {
    auto transect = TransectIndex::Open(dir_, kSensors, options);
    ASSERT_TRUE(transect.ok()) << transect.status().ToString();
    EXPECT_GE(vfs.counters().mkdirs, 5u);
  }

  Cleanup();
  vfs.Reset();
  vfs.FailAfterMkdirs(1);  // root succeeds, first shard dir fails
  auto failed = TransectIndex::Open(dir_, kSensors, options);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsIOError()) << failed.status().ToString();
}

}  // namespace
}  // namespace segdiff
