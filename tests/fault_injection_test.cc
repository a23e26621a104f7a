// Crash-recovery and corruption-detection harness.
//
// Drives the storage stack through FaultInjectionVfs: torn pages, lost
// unsynced writes, failed fsyncs, dying devices, and flipped bits. The
// contract under test (DESIGN.md §9): after any single fault the store
// either reopens and resumes exactly at its last checkpoint, or reports
// Status::Corruption naming the damaged page — it never crashes, hangs,
// or silently returns wrong results, and a failed open never clobbers
// the on-disk evidence.
//
// The crash-matrix sweep samples its fault points with a seeded RNG;
// set SEGDIFF_FAULT_SEED to explore a different schedule (the default
// keeps CI deterministic).

#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "table_records.h"
#include "test_paths.h"

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/env.h"
#include "common/vfs.h"
#include "query/executor.h"
#include "segdiff/exh_index.h"
#include "segdiff/segdiff_index.h"
#include "segdiff/transect_index.h"
#include "sql/engine.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "storage/db.h"
#include "storage/fault_vfs.h"
#include "storage/pager.h"
#include "storage/wal.h"
#include "storage/zone_map.h"
#include "ts/generator.h"

namespace segdiff {
namespace {

// ---------------------------------------------------------------------------
// CRC32C known answers (RFC 3720 test vector) and incremental equivalence.

TEST(Crc32cTest, KnownAnswers) {
  EXPECT_EQ(Crc32c("", 0), 0u);
  const char kNumbers[] = "123456789";
  EXPECT_EQ(Crc32c(kNumbers, 9), 0xE3069283u);
  // 32 zero bytes (iSCSI test vector).
  const char zeros[32] = {0};
  EXPECT_EQ(Crc32c(zeros, sizeof(zeros)), 0x8A9136AAu);
}

TEST(Crc32cTest, ExtendSplitsAreEquivalent) {
  std::string data(1027, '\0');
  std::mt19937_64 rng(42);
  for (char& c : data) {
    c = static_cast<char>(rng());
  }
  const uint32_t whole = Crc32c(data.data(), data.size());
  for (size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{512},
                       size_t{1026}, data.size()}) {
    uint32_t crc = Crc32cExtend(0, data.data(), split);
    crc = Crc32cExtend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
  // The accessor must be callable either way; its value depends on the
  // build's -march flags.
  (void)Crc32cHardwareAccelerated();
}

// ---------------------------------------------------------------------------
// Helpers.

/// Flips one bit of the byte at `offset` in `path` (the classic silent
/// media error).
void FlipByte(const std::string& path, uint64_t offset) {
  auto file = Vfs::Default()->OpenFile(path, /*create=*/false);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  char b = 0;
  ASSERT_TRUE((*file)->Read(offset, 1, &b).ok());
  b ^= 0x40;
  ASSERT_TRUE((*file)->Write(offset, &b, 1).ok());
  ASSERT_TRUE((*file)->Sync().ok());
}

Series MakeSeries(int num_days, uint64_t seed = 20080325) {
  CadGeneratorOptions gen;
  gen.num_days = num_days;
  gen.cad_events_per_day = 1.0;
  gen.seed = seed;
  auto data = GenerateCadSeries(gen);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  return std::move(data->series);
}

const char* const kSegDiffTables[] = {"segments", "drop1", "drop2", "drop3",
                                      "jump1",    "jump2", "jump3"};

void ExpectSameTables(SegDiffIndex* actual, SegDiffIndex* expected) {
  for (const char* name : kSegDiffTables) {
    const std::vector<std::string> a = TableRecords(actual->db(), name);
    const std::vector<std::string> e = TableRecords(expected->db(), name);
    ASSERT_EQ(a.size(), e.size()) << "row count mismatch in " << name;
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], e[i]) << "record " << i << " differs in " << name;
    }
  }
}

// ---------------------------------------------------------------------------
// Pager-level detection: flipped bits and torn pages.

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("fault");
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(FaultInjectionTest, SingleByteFlipIsDetectedAndLocated) {
  char buf[kPageSize];
  {
    auto pager = Pager::Open(path_, /*create=*/true);
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    auto first = (*pager)->AllocateExtent(4);  // pages 1..4
    ASSERT_TRUE(first.ok());
    for (PageId id = *first; id < *first + 4; ++id) {
      std::memset(buf, static_cast<int>('a' + id), kPageSize);
      ASSERT_TRUE((*pager)->WritePage(id, buf).ok());
    }
    ASSERT_TRUE((*pager)->Sync().ok());
  }
  FlipByte(path_, 2 * kPageSize + 137);  // one bit in page 2's payload

  auto pager = Pager::Open(path_, /*create=*/false);
  ASSERT_TRUE(pager.ok()) << pager.status().ToString();
  Status bad = (*pager)->ReadPage(2, buf);
  ASSERT_TRUE(bad.IsCorruption()) << bad.ToString();
  EXPECT_NE(std::string(bad.message()).find("page 2"), std::string::npos)
      << bad.ToString();
  EXPECT_TRUE((*pager)->ReadPage(1, buf).ok());  // neighbours unaffected
  EXPECT_TRUE((*pager)->ReadPage(3, buf).ok());

  auto report = (*pager)->Scrub();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->pages_checked, (*pager)->page_count());
  ASSERT_EQ(report->corrupt.size(), 1u);
  EXPECT_EQ(report->corrupt[0].page, 2u);
  EXPECT_FALSE(report->clean());

  // Scrub (and the failed read) must not "repair" anything: the flipped
  // byte is evidence. A second scrub sees the same damage.
  auto again = (*pager)->Scrub();
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->corrupt.size(), 1u);
}

TEST_F(FaultInjectionTest, TornPageWriteSurfacesAsCorruptionAfterCrash) {
  FaultInjectionVfs vfs;
  char buf[kPageSize];
  {
    auto pager = Pager::Open(path_, /*create=*/true, &vfs);
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    auto first = (*pager)->AllocateExtent(3);
    ASSERT_TRUE(first.ok());
    for (PageId id = *first; id < *first + 3; ++id) {
      std::memset(buf, 'o', kPageSize);
      ASSERT_TRUE((*pager)->WritePage(id, buf).ok());
    }
    ASSERT_TRUE((*pager)->Sync().ok());

    // Power cut mid-write: page 2's rewrite persists only 1000 bytes,
    // yet the device reported success. The following Sync makes the torn
    // state the durable state; the crash then prevents any healing
    // rewrite from reaching the disk.
    vfs.SetTornWrite(2 * kPageSize, 1000);
    std::memset(buf, 'n', kPageSize);
    ASSERT_TRUE((*pager)->WritePage(2, buf).ok());
    ASSERT_TRUE((*pager)->Sync().ok());
    ASSERT_TRUE(vfs.Crash().ok());
    // Pager destructor's best-effort header write fails harmlessly here.
  }
  EXPECT_EQ(vfs.counters().torn_writes, 1u);
  vfs.Reset();

  auto pager = Pager::Open(path_, /*create=*/false, &vfs);
  ASSERT_TRUE(pager.ok()) << pager.status().ToString();
  Status torn = (*pager)->ReadPage(2, buf);
  ASSERT_TRUE(torn.IsCorruption()) << torn.ToString();
  // The untouched pages still read back as their old contents.
  ASSERT_TRUE((*pager)->ReadPage(1, buf).ok());
  EXPECT_EQ(buf[0], 'o');
  auto report = (*pager)->Scrub();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->corrupt.size(), 1u);
  EXPECT_EQ(report->corrupt[0].page, 2u);
}

// Satellite: a dirty page whose eviction write-back fails must stay
// dirty and cached, and the error must reach the caller that forced the
// eviction — not vanish into the LRU.
TEST_F(FaultInjectionTest, DirtyEvictionWritebackFailurePropagates) {
  FaultInjectionVfs vfs;
  auto pager = Pager::Open(path_, /*create=*/true, &vfs);
  ASSERT_TRUE(pager.ok()) << pager.status().ToString();
  auto first = (*pager)->AllocateExtent(20);
  ASSERT_TRUE(first.ok());

  BufferPool pool(pager->get(), 16);  // 16 frames, single shard
  ASSERT_EQ(pool.num_shards(), 1u);
  for (PageId id = *first; id < *first + 16; ++id) {
    auto handle = pool.Fetch(id);
    ASSERT_TRUE(handle.ok());
    std::memset(handle->data(), static_cast<int>(id & 0x7f), kPageCapacity);
    handle->MarkDirty();
  }

  vfs.FailAfterWrites(0);  // the device dies
  auto evicting = pool.Fetch(*first + 16);  // full pool -> must evict
  ASSERT_FALSE(evicting.ok());
  EXPECT_TRUE(evicting.status().IsIOError()) << evicting.status().ToString();
  // The victim was not lost: still cached, still dirty, still evictable.
  EXPECT_EQ(pool.cached_pages(), 16u);

  vfs.FailAfterWrites(-1);  // device back; the retry must succeed
  {
    auto retry = pool.Fetch(*first + 16);
    ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(pool.DropAll().ok());

  // Every dirty page reached disk intact once the device recovered.
  char buf[kPageSize];
  for (PageId id = *first; id < *first + 16; ++id) {
    ASSERT_TRUE((*pager)->ReadPage(id, buf).ok());
    EXPECT_EQ(buf[0], static_cast<char>(id & 0x7f)) << "page " << id;
  }
}

// ---------------------------------------------------------------------------
// Store-level crash recovery.

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("crash");
    golden_path_ = UniqueTestPath("crash", "_golden.db");
    std::remove(path_.c_str());
    std::remove((path_ + ".wal").c_str());
    std::remove(golden_path_.c_str());
    std::remove((golden_path_ + ".wal").c_str());
    series_ = MakeSeries(1);
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".wal").c_str());
    std::remove(golden_path_.c_str());
    std::remove((golden_path_ + ".wal").c_str());
  }

  SegDiffOptions Options(Vfs* vfs) const {
    SegDiffOptions options;
    options.build_indexes = false;  // heap-only stores keep the sweep fast
    options.vfs = vfs;
    return options;
  }

  /// The oracle: the full series ingested with no faults.
  std::unique_ptr<SegDiffIndex> BuildGolden() {
    auto store = SegDiffIndex::Open(golden_path_, Options(nullptr));
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    for (const Sample& s : series_) {
      EXPECT_TRUE((*store)->AppendObservation(s.t, s.v).ok());
    }
    EXPECT_TRUE((*store)->FlushPending().ok());
    return std::move(store).value();
  }

  /// Ingests the series with a checkpoint every `kCheckpointEvery`
  /// observations, stopping at the first error (an injected fault).
  static void IngestUntilFault(SegDiffIndex* store, const Series& series) {
    uint64_t appended = 0;
    for (const Sample& s : series) {
      if (!store->AppendObservation(s.t, s.v).ok()) {
        return;
      }
      if (++appended % kCheckpointEvery == 0 && !store->Checkpoint().ok()) {
        return;
      }
    }
    if (!store->FlushPending().ok()) {
      return;
    }
    Status final_checkpoint = store->Checkpoint();  // may hit the fault
    (void)final_checkpoint;
  }

  /// Reopens after a crash and verifies the recovery contract: the store
  /// either resumes exactly (appending the tail reproduces the golden
  /// tables byte for byte) or reports Corruption. Anything else fails.
  void CheckRecoversOrReportsCorruption(FaultInjectionVfs* vfs,
                                        SegDiffIndex* golden) {
    auto reopened = SegDiffIndex::Open(path_, Options(vfs));
    if (!reopened.ok()) {
      EXPECT_TRUE(reopened.status().IsCorruption())
          << "reopen after crash must resume or report Corruption, got: "
          << reopened.status().ToString();
      return;
    }
    SegDiffIndex* store = reopened->get();
    const uint64_t resumed_at = store->num_observations();
    ASSERT_LE(resumed_at, series_.size());
    for (size_t i = resumed_at; i < series_.size(); ++i) {
      ASSERT_TRUE(store->AppendObservation(series_[i].t, series_[i].v).ok());
    }
    ASSERT_TRUE(store->FlushPending().ok());
    ExpectSameTables(store, golden);
  }

  static constexpr uint64_t kCheckpointEvery = 25;

  std::string path_;
  std::string golden_path_;
  Series series_;
};

TEST_F(CrashRecoveryTest, UnsyncedWritesRollBackToLastCheckpoint) {
  FaultInjectionVfs vfs;
  auto golden = BuildGolden();
  const size_t half = series_.size() / 2;
  // Checkpoint-granular durability is the contract under test, so the
  // WAL is off: with it on, the group-commit flusher races the crash
  // and some prefix of the second half would (correctly!) survive —
  // WalCrashTest owns that contract.
  SegDiffOptions options = Options(&vfs);
  options.wal = false;
  {
    auto store = SegDiffIndex::Open(path_, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE((*store)->AppendObservation(series_[i].t, series_[i].v).ok());
    }
    ASSERT_TRUE((*store)->Checkpoint().ok());
    // The second half is never checkpointed: a crash erases it.
    for (size_t i = half; i < series_.size(); ++i) {
      ASSERT_TRUE((*store)->AppendObservation(series_[i].t, series_[i].v).ok());
    }
    ASSERT_TRUE(vfs.Crash().ok());
  }
  vfs.Reset();

  auto reopened = SegDiffIndex::Open(path_, Options(&vfs));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->num_observations(), half);
  // Appending the lost tail reproduces the golden store exactly.
  for (size_t i = half; i < series_.size(); ++i) {
    ASSERT_TRUE(
        (*reopened)->AppendObservation(series_[i].t, series_[i].v).ok());
  }
  ASSERT_TRUE((*reopened)->FlushPending().ok());
  ExpectSameTables(reopened->get(), golden.get());
}

TEST_F(CrashRecoveryTest, FailedFsyncSurfacesAndStoreRecovers) {
  FaultInjectionVfs vfs;
  auto store = SegDiffIndex::Open(path_, Options(&vfs));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  for (size_t i = 0; i < 50; ++i) {
    ASSERT_TRUE((*store)->AppendObservation(series_[i].t, series_[i].v).ok());
  }
  vfs.FailAfterSyncs(0);
  Status failed = (*store)->Checkpoint();
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.IsIOError()) << failed.ToString();
  // fsync failures must not be swallowed and retried as a false success:
  // once the device recovers, an explicit checkpoint persists everything.
  vfs.FailAfterSyncs(-1);
  ASSERT_TRUE((*store)->Checkpoint().ok());
  ASSERT_TRUE(vfs.Crash().ok());
  store->reset();
  vfs.Reset();

  auto reopened = SegDiffIndex::Open(path_, Options(&vfs));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->num_observations(), 50u);
}

TEST_F(CrashRecoveryTest, CreatedFileSurvivesCrashOnlyAfterDirSync) {
  FaultInjectionVfs vfs;
  // Checkpoint-only durability isolates the directory-entry behavior
  // under test: with the WAL on, the very first group commit fsyncs the
  // directory and the file always survives (see the WAL crash tests).
  SegDiffOptions wal_off = Options(&vfs);
  wal_off.wal = false;
  {
    // Created, written, never checkpointed: the directory entry itself
    // is not durable, so a crash makes the whole file vanish.
    auto store = SegDiffIndex::Open(path_, wal_off);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (size_t i = 0; i < 10; ++i) {
      ASSERT_TRUE((*store)->AppendObservation(series_[i].t, series_[i].v).ok());
    }
    ASSERT_TRUE(vfs.Crash().ok());
  }
  vfs.Reset();
  EXPECT_FALSE(vfs.FileExists(path_));

  {
    // Same sequence with a checkpoint: Pager::Sync fsyncs the parent
    // directory after creation, so the file now survives the crash.
    auto store = SegDiffIndex::Open(path_, wal_off);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (size_t i = 0; i < 10; ++i) {
      ASSERT_TRUE((*store)->AppendObservation(series_[i].t, series_[i].v).ok());
    }
    ASSERT_TRUE((*store)->Checkpoint().ok());
    EXPECT_GE(vfs.counters().dir_syncs, 1u);
    ASSERT_TRUE(vfs.Crash().ok());
  }
  vfs.Reset();
  ASSERT_TRUE(vfs.FileExists(path_));
  auto reopened = SegDiffIndex::Open(path_, wal_off);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->num_observations(), 10u);
}

// The crash matrix: kill the device after the Nth write (then crash) for
// a seeded sample of N across the whole ingest, and likewise for syncs.
// Every fault point must land in "resumes exactly" or "reports
// Corruption" — nothing else.
TEST_F(CrashRecoveryTest, CrashMatrixWriteFaultSweep) {
  auto golden = BuildGolden();
  FaultInjectionVfs vfs;

  // Dry run: count the total writes a faultless ingest performs.
  {
    auto store = SegDiffIndex::Open(path_, Options(&vfs));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    IngestUntilFault(store->get(), series_);
  }
  const uint64_t total_writes = vfs.counters().writes;
  ASSERT_GT(total_writes, 0u);

  const uint64_t seed = static_cast<uint64_t>(
      GetEnvInt64("SEGDIFF_FAULT_SEED", 20080325));
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<uint64_t> pick(0, total_writes - 1);
  std::vector<uint64_t> fault_points = {0, 1, total_writes - 1};
  for (int i = 0; i < 9; ++i) {
    fault_points.push_back(pick(rng));
  }

  for (const uint64_t n : fault_points) {
    SCOPED_TRACE("device dies after write " + std::to_string(n) +
                 " (seed " + std::to_string(seed) + ")");
    std::remove(path_.c_str());
    vfs.Reset();
    vfs.FailAfterWrites(static_cast<int64_t>(n));
    {
      auto store = SegDiffIndex::Open(path_, Options(&vfs));
      if (store.ok()) {
        IngestUntilFault(store->get(), series_);
      }
      ASSERT_TRUE(vfs.Crash().ok());
    }
    vfs.Reset();
    if (!vfs.FileExists(path_)) {
      continue;  // crashed before the directory entry was durable
    }
    CheckRecoversOrReportsCorruption(&vfs, golden.get());
  }
}

TEST_F(CrashRecoveryTest, CrashMatrixSyncFaultSweep) {
  auto golden = BuildGolden();
  FaultInjectionVfs vfs;
  {
    auto store = SegDiffIndex::Open(path_, Options(&vfs));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    IngestUntilFault(store->get(), series_);
  }
  const uint64_t total_syncs = vfs.counters().syncs;
  ASSERT_GT(total_syncs, 0u);

  for (uint64_t n = 0; n < total_syncs; ++n) {
    SCOPED_TRACE("device dies after fsync " + std::to_string(n));
    std::remove(path_.c_str());
    vfs.Reset();
    vfs.FailAfterSyncs(static_cast<int64_t>(n));
    {
      auto store = SegDiffIndex::Open(path_, Options(&vfs));
      if (store.ok()) {
        IngestUntilFault(store->get(), series_);
      }
      ASSERT_TRUE(vfs.Crash().ok());
    }
    vfs.Reset();
    if (!vfs.FileExists(path_)) {
      continue;
    }
    CheckRecoversOrReportsCorruption(&vfs, golden.get());
  }
}

// Compaction through a dying device must fail loudly and leave the
// source byte-for-byte intact; a half-written destination either
// vanishes with the crash (its directory entry was never durable) or
// refuses to open — it can never pass for a healthy store.
TEST_F(CrashRecoveryTest, CrashDuringCompactLeavesSourceIntact) {
  FaultInjectionVfs vfs;
  const std::string dest = path_ + ".compact";
  std::remove(dest.c_str());
  {
    auto store = SegDiffIndex::Open(path_, Options(&vfs));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (size_t i = 0; i < 100; ++i) {
      ASSERT_TRUE((*store)->AppendObservation(series_[i].t, series_[i].v).ok());
    }
    ASSERT_TRUE((*store)->FlushPending().ok());
    ASSERT_TRUE((*store)->Checkpoint().ok());

    vfs.FailAfterWrites(5);  // the device dies a few pages into the copy
    Status compact = (*store)->Compact(dest);
    ASSERT_FALSE(compact.ok());
    EXPECT_TRUE(compact.IsIOError()) << compact.ToString();
    ASSERT_TRUE(vfs.Crash().ok());
  }
  vfs.Reset();

  auto reopened = SegDiffIndex::Open(path_, Options(&vfs));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->num_observations(), 100u);
  EXPECT_TRUE((*reopened)->SearchDrops(3600.0, -3.0).ok());

  if (vfs.FileExists(dest)) {
    SegDiffOptions options = Options(&vfs);
    options.create_if_missing = false;
    auto half = SegDiffIndex::Open(dest, options);
    EXPECT_FALSE(half.ok()) << "half-compacted store opened cleanly";
  }
  std::remove(dest.c_str());
}

// The row->columnar conversion inside CompactInto is the one moment the
// store changes physical format. Sweep device-death points across the
// whole conversion: at every fault point the SOURCE store must reopen
// with its row format intact (same records, searchable), and the
// half-converted destination must either vanish with the crash or
// refuse to open — it can never pass for a healthy columnar store.
TEST_F(CrashRecoveryTest, CrashMatrixCompactConversionSweep) {
  FaultInjectionVfs vfs;
  const std::string dest = path_ + ".columnar";
  std::remove(dest.c_str());

  DatabaseOptions db_options;
  db_options.vfs = &vfs;
  std::vector<std::string> golden_records;
  {
    auto db = Database::Open(path_, db_options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto schema = DoubleSchema({"t", "v"});
    ASSERT_TRUE(schema.ok());
    auto table = (*db)->CreateTable("f", *schema);
    ASSERT_TRUE(table.ok());
    double t = 0.0;
    std::mt19937_64 rng(7);
    for (int i = 0; i < 9000; ++i) {
      t += 30.0 + static_cast<double>(rng() % 60);
      ASSERT_TRUE(
          (*table)
              ->InsertDoubles({t, static_cast<double>(rng() % 1600) / 100.0})
              .ok());
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());
    golden_records = TableRecords(db->get(), "f");
  }
  ASSERT_EQ(golden_records.size(), 9000u);

  // Dry run: how many writes does a faultless conversion perform?
  // Count the delta across CompactInto itself — the source database's
  // close-time checkpoint also writes, and those writes are not part of
  // the conversion under test.
  uint64_t total_writes = 0;
  {
    db_options.create_if_missing = false;
    auto db = Database::Open(path_, db_options);
    ASSERT_TRUE(db.ok());
    (*db)->Abandon();
    const uint64_t before = vfs.counters().writes;
    ASSERT_TRUE((*db)->CompactInto(dest).ok());
    total_writes = vfs.counters().writes - before;
  }
  ASSERT_GT(total_writes, 0u);
  {  // the faultless conversion itself must produce a columnar store
    auto converted = Database::Open(dest, db_options);
    ASSERT_TRUE(converted.ok()) << converted.status().ToString();
    auto table = (*converted)->GetTable("f");
    ASSERT_TRUE(table.ok());
    ASSERT_NE((*table)->columnar(), nullptr);
    EXPECT_EQ(TableRecords(converted->get(), "f"), golden_records);
  }
  std::remove(dest.c_str());

  const uint64_t seed =
      static_cast<uint64_t>(GetEnvInt64("SEGDIFF_FAULT_SEED", 20080325));
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<uint64_t> pick(0, total_writes - 1);
  std::vector<uint64_t> fault_points = {0, 1, total_writes / 2,
                                        total_writes - 1};
  for (int i = 0; i < 8; ++i) {
    fault_points.push_back(pick(rng));
  }

  for (const uint64_t n : fault_points) {
    SCOPED_TRACE("device dies after write " + std::to_string(n) +
                 " of the conversion (seed " + std::to_string(seed) + ")");
    std::remove(dest.c_str());
    vfs.Reset();
    Status compact;
    {
      auto db = Database::Open(path_, db_options);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      vfs.FailAfterWrites(static_cast<int64_t>(n));
      compact = (*db)->CompactInto(dest);
      if (!compact.ok()) {
        EXPECT_TRUE(compact.IsIOError()) << compact.ToString();
      }
      ASSERT_TRUE(vfs.Crash().ok());
    }
    vfs.Reset();

    // The source still opens on the old row format with every record —
    // regardless of where the conversion died.
    auto source = Database::Open(path_, db_options);
    ASSERT_TRUE(source.ok())
        << "source store lost after conversion crash: "
        << source.status().ToString();
    auto table = (*source)->GetTable("f");
    ASSERT_TRUE(table.ok());
    EXPECT_EQ((*table)->columnar(), nullptr)
        << "source must stay row-format";
    EXPECT_EQ(TableRecords(source->get(), "f"), golden_records);
    (*source)->Abandon();

    if (compact.ok()) {
      // The fault point landed past the conversion's last write (write
      // counts shift by a page or two between runs): success means the
      // destination was fully checkpointed, so it must open complete.
      auto done = Database::Open(dest, db_options);
      ASSERT_TRUE(done.ok()) << done.status().ToString();
      auto converted = (*done)->GetTable("f");
      ASSERT_TRUE(converted.ok());
      EXPECT_NE((*converted)->columnar(), nullptr);
      EXPECT_EQ(TableRecords(done->get(), "f"), golden_records);
      continue;
    }

    // The half-written destination never passes for a healthy store.
    if (vfs.FileExists(dest)) {
      auto half = Database::Open(dest, db_options);
      if (half.ok()) {
        // Tolerated only if the crash landed after the conversion was
        // fully durable — then it must be complete and correct.
        EXPECT_EQ(TableRecords(half->get(), "f"), golden_records)
            << "half-converted store opened with wrong contents";
      } else {
        EXPECT_TRUE(half.status().IsCorruption() ||
                    half.status().IsIOError() ||
                    half.status().IsNotFound())
            << half.status().ToString();
      }
    }
  }
  std::remove(dest.c_str());
}

// ---------------------------------------------------------------------------
// Graceful degradation: corruption quarantines the range, search says so.

TEST_F(CrashRecoveryTest, FlippedFeaturePageQuarantinesSearch) {
  PageId victim = kInvalidPageId;
  {
    auto store = SegDiffIndex::Open(path_, Options(nullptr));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (const Sample& s : series_) {
      ASSERT_TRUE((*store)->AppendObservation(s.t, s.v).ok());
    }
    ASSERT_TRUE((*store)->FlushPending().ok());
    auto results = (*store)->SearchDrops(3600.0, -3.0);
    ASSERT_TRUE(results.ok()) << results.status().ToString();

    // Damage drop1's first heap page.
    auto table = (*store)->db()->GetTable("drop1");
    ASSERT_TRUE(table.ok());
    victim = (*table)->heap_meta().first_page;
  }
  ASSERT_NE(victim, kInvalidPageId) << "series produced no drop1 rows";
  FlipByte(path_, victim * kPageSize + 64);

  auto store = SegDiffIndex::Open(path_, Options(nullptr));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto results = (*store)->SearchDrops(3600.0, -3.0);
  ASSERT_FALSE(results.ok()) << "corrupt page returned "
                             << results->size() << " rows";
  EXPECT_TRUE(results.status().IsCorruption());
  const std::string message(results.status().message());
  EXPECT_NE(message.find("quarantined"), std::string::npos) << message;
  EXPECT_NE(message.find("drop1"), std::string::npos) << message;

  // The scrubber maps the damage to the exact page.
  auto report = (*store)->db()->Scrub();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->corrupt.size(), 1u);
  EXPECT_EQ(report->corrupt[0].page, victim);
}

// Zone-map pruning must not mask corruption: a pruned page is still
// fetched — and checksum-verified — by the buffer pool; pruning only
// skips the decode and predicate work. A damaged page therefore fails
// the scan even when its rows could never match the predicate.
TEST_F(FaultInjectionTest, PrunedCorruptPageStillDetected) {
  PageId victim = kInvalidPageId;
  Predicate nothing_matches;
  nothing_matches.And(0, CmpOp::kGe, 1e9);  // beyond every zone's max
  {
    auto db = Database::Open(path_, DatabaseOptions{});
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto schema = DoubleSchema({"a", "b"});
    ASSERT_TRUE(schema.ok());
    auto table = (*db)->CreateTable("f", *schema);
    ASSERT_TRUE(table.ok());
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE((*table)
                      ->InsertDoubles({static_cast<double>(i),
                                       static_cast<double>(-i)})
                      .ok());
    }
    victim = (*table)->heap_meta().first_page;
    // Sanity: on the healthy store this query prunes every single page.
    ScanStats stats;
    ASSERT_TRUE(SeqScan(**table, nothing_matches,
                        [](const char*, RecordId) { return Status::OK(); },
                        &stats)
                    .ok());
    ASSERT_EQ(stats.pages_pruned, (*table)->heap_meta().page_count);
    ASSERT_EQ(stats.pages_scanned, 0u);
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  ASSERT_NE(victim, kInvalidPageId);
  FlipByte(path_, victim * kPageSize + 200);

  DatabaseOptions options;
  options.create_if_missing = false;
  auto db = Database::Open(path_, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  (*db)->Abandon();  // keep the evidence on disk
  auto table = (*db)->GetTable("f");
  ASSERT_TRUE(table.ok());
  ASSERT_NE((*table)->zone_map(), nullptr) << "zone map not restored";
  Status status =
      SeqScan(**table, nothing_matches,
              [](const char*, RecordId) { return Status::OK(); }, nullptr);
  ASSERT_TRUE(status.IsCorruption())
      << "pruned scan masked a corrupt page: " << status.ToString();
  EXPECT_NE(std::string(status.message())
                .find("page " + std::to_string(victim)),
            std::string::npos)
      << status.ToString();
}

// ---------------------------------------------------------------------------
// Older on-disk formats: refused loudly, never half-read, never touched.

TEST_F(FaultInjectionTest, OlderFormatVersionsAreRefusedUntouched) {
  {
    DatabaseOptions options;
    auto db = Database::Open(path_, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto schema = DoubleSchema({"a", "b"});
    ASSERT_TRUE(schema.ok());
    auto table = (*db)->CreateTable("t", *schema);
    ASSERT_TRUE(table.ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(
          (*table)->InsertDoubles({double(i), double(-i)}).ok());
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  auto file_bytes = [this] {
    std::ifstream in(path_, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  auto expect_refused = [&](const std::string& what) {
    const std::string before = file_bytes();
    DatabaseOptions options;
    options.create_if_missing = false;
    auto db = Database::Open(path_, options);
    ASSERT_FALSE(db.ok()) << "opened a store claiming " << what;
    EXPECT_TRUE(db.status().IsCorruption()) << db.status().ToString();
    EXPECT_NE(std::string(db.status().message()).find(what),
              std::string::npos)
        << db.status().ToString();
    EXPECT_EQ(file_bytes(), before) << "the refused open modified the file";
  };
  auto write_header_version = [this](uint32_t version) {
    auto file = Vfs::Default()->OpenFile(path_, /*create=*/false);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    char raw[4];
    EncodeFixed32(raw, version);
    ASSERT_TRUE((*file)->Write(4, raw, 4).ok());
    ASSERT_TRUE((*file)->Sync().ok());
  };

  // A header claiming v1, the format without page trailers.
  write_header_version(1);
  expect_refused("unsupported version 1");
  write_header_version(Pager::kFormatChecksummed);

  // A catalog claiming version 2 (no columnar segment directory),
  // patched through the pager so page 1 keeps a valid trailer: only the
  // version check stands between it and a misparse.
  {
    auto pager = Pager::Open(path_, /*create=*/false);
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    char buf[kPageSize];
    ASSERT_TRUE((*pager)->ReadPage(1, buf).ok());
    // 16-byte chain header, then the payload: u32 magic, u32 version.
    ASSERT_EQ(DecodeFixed32(buf + 20), 3u);
    EncodeFixed32(buf + 20, 2);
    ASSERT_TRUE((*pager)->WritePage(1, buf).ok());
    ASSERT_TRUE((*pager)->Sync().ok());
  }
  expect_refused("unsupported catalog version 2");
  std::remove(Wal::PathFor(path_).c_str());
}

// A header that fails its own checksum fails every open, and no failed
// open repairs it by rewriting the header.
TEST_F(FaultInjectionTest, DamagedHeaderFailsEveryOpenUntouched) {
  std::remove(Wal::PathFor(path_).c_str());
  {
    DatabaseOptions options;
    options.wal = false;
    auto db = Database::Open(path_, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto schema = DoubleSchema({"a", "b"});
    ASSERT_TRUE(schema.ok());
    auto table = (*db)->CreateTable("t", *schema);
    ASSERT_TRUE(table.ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE((*table)->InsertDoubles({double(i), double(-i)}).ok());
    }
    ASSERT_TRUE((*db)->Close().ok());
  }
  // Byte 100 lies past the header's fields, in bytes no reader parses:
  // only page 0's checksum notices the flip.
  FlipByte(path_, 100);
  auto file_bytes = [this] {
    std::ifstream in(path_, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string before = file_bytes();
  for (int attempt = 1; attempt <= 2; ++attempt) {
    DatabaseOptions options;
    options.create_if_missing = false;
    auto db = Database::Open(path_, options);
    ASSERT_FALSE(db.ok()) << "open " << attempt << " accepted the header";
    EXPECT_TRUE(db.status().IsCorruption()) << db.status().ToString();
    EXPECT_NE(std::string(db.status().message()).find("page 0"),
              std::string::npos)
        << db.status().ToString();
    EXPECT_EQ(file_bytes(), before) << "open " << attempt
                                    << " rewrote the file";
    EXPECT_FALSE(Vfs::Default()->FileExists(Wal::PathFor(path_)))
        << "open " << attempt << " created a WAL sidecar";
  }
  std::remove(Wal::PathFor(path_).c_str());
}

// ---------------------------------------------------------------------------
// Reads write nothing (DESIGN.md §13): opening a store, searching it,
// sizing and scrubbing it, then checkpointing and closing it — or
// evicting it from a transect's store cache — issues no write, fsync or
// directory sync, leaves every file byte-identical and creates no WAL
// sidecar. The negative cases show cleanliness is not over-detected: a
// checkpoint with something to persist still runs, or a crash would
// lose it.

/// Every regular file under `root`: relative path -> contents.
std::map<std::string, std::string> FileTree(const std::string& root) {
  std::map<std::string, std::string> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    files[std::filesystem::relative(entry.path(), root).string()] =
        std::string(std::istreambuf_iterator<char>(in), {});
  }
  return files;
}

void ExpectSameFiles(const std::map<std::string, std::string>& before,
                     const std::map<std::string, std::string>& after) {
  for (const auto& [name, bytes] : after) {
    auto it = before.find(name);
    if (it == before.end()) {
      ADD_FAILURE() << name << " appeared";
    } else {
      EXPECT_TRUE(it->second == bytes) << name << " changed";
    }
  }
  for (const auto& [name, bytes] : before) {
    EXPECT_EQ(after.count(name), 1u) << name << " vanished";
  }
}

class ReadsWriteNothingTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    dir_ = UniqueTestPath("reads_write_nothing", "");
    Cleanup();
    ASSERT_TRUE(std::filesystem::create_directories(dir_));
  }
  void TearDown() override { Cleanup(); }
  void Cleanup() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// WAL per the test parameter. A small pool, so the stores' own pages
  /// do not all fit and reads evict.
  SegDiffOptions Options(Vfs* vfs) const {
    SegDiffOptions options;
    options.vfs = vfs;
    options.wal = GetParam();
    options.buffer_pool_pages = 32;
    return options;
  }

  std::string dir_;
};

/// Runs drops and jumps in kAuto and per-corner kSeqScan, serial and on
/// 4 threads; returns the total number of results.
template <typename Store>
size_t SearchEveryWay(Store* store) {
  size_t results = 0;
  for (QueryMode mode : {QueryMode::kAuto, QueryMode::kSeqScan}) {
    for (size_t threads : {size_t{0}, size_t{4}}) {
      SearchOptions options;
      options.mode = mode;
      options.num_threads = threads;
      SearchStats stats;
      auto drops = store->SearchDrops(3600.0, -1.0, options, &stats);
      EXPECT_TRUE(drops.ok()) << drops.status().ToString();
      auto jumps = store->SearchJumps(3600.0, 1.0, options, &stats);
      EXPECT_TRUE(jumps.ok()) << jumps.status().ToString();
      if (drops.ok() && jumps.ok()) results += drops->size() + jumps->size();
    }
  }
  return results;
}

TEST_P(ReadsWriteNothingTest, OpenSearchScrubCloseDoesNoIo) {
  const std::string row_path = dir_ + "/row.db";
  const std::string col_path = dir_ + "/col.db";
  const std::string exh_path = dir_ + "/exh.db";
  const std::string transect_dir = dir_ + "/transect";
  constexpr int kSensors = 4;
  ExhOptions exh_options;
  exh_options.window_s = 7200.0;
  exh_options.wal = GetParam();
  TransectOptions transect_options;
  transect_options.store = Options(nullptr);
  transect_options.sensors_per_shard = 2;
  transect_options.max_open_stores = 2;  // every cold touch evicts
  {
    const Series series = MakeSeries(2);
    auto row = SegDiffIndex::Open(row_path, Options(nullptr));
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    ASSERT_TRUE((*row)->IngestSeries(series).ok());
    ASSERT_TRUE((*row)->Compact(col_path).ok());
    auto exh = ExhIndex::Open(exh_path, exh_options);
    ASSERT_TRUE(exh.ok()) << exh.status().ToString();
    ASSERT_TRUE((*exh)->IngestSeries(MakeSeries(1)).ok());
    CadGeneratorOptions gen;
    gen.num_days = 1;
    auto data = GenerateCadTransect(gen, kSensors);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    std::vector<Series> all_series;
    for (auto& sensor : *data) all_series.push_back(std::move(sensor.series));
    auto transect =
        TransectIndex::Open(transect_dir, kSensors, transect_options);
    ASSERT_TRUE(transect.ok()) << transect.status().ToString();
    ASSERT_TRUE((*transect)->IngestAllSensors(all_series).ok());
    ASSERT_TRUE((*transect)->Checkpoint().ok());
  }
  const std::map<std::string, std::string> before = FileTree(dir_);
  ASSERT_EQ(before.count("row.db.wal"), GetParam() ? 1u : 0u);
  ASSERT_EQ(before.count("col.db.wal"), 0u);  // compaction runs WAL-off

  FaultInjectionVfs vfs;
  auto read_store = [&](auto* store) {
    EXPECT_GT(SearchEveryWay(store), 0u);
    EXPECT_GT(store->GetSizes().feature_rows, 0u);
    auto scrub = store->db()->Scrub();
    ASSERT_TRUE(scrub.ok()) << scrub.status().ToString();
    EXPECT_TRUE(scrub->clean());
    EXPECT_TRUE(store->Checkpoint().ok());  // as a store-cache eviction does
  };
  for (const std::string& path : {row_path, col_path}) {
    SegDiffOptions options = Options(&vfs);
    options.create_if_missing = false;
    auto store = SegDiffIndex::Open(path, options);
    ASSERT_TRUE(store.ok()) << path << ": " << store.status().ToString();
    read_store(store->get());
  }
  {
    exh_options.vfs = &vfs;
    auto store = ExhIndex::Open(exh_path, exh_options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    read_store(store->get());
  }
  {
    transect_options.store.vfs = &vfs;
    transect_options.store.create_if_missing = false;
    auto transect = TransectIndex::Open(transect_dir, 0, transect_options);
    ASSERT_TRUE(transect.ok()) << transect.status().ToString();
    for (size_t threads : {size_t{0}, size_t{4}}) {
      SearchOptions options;
      options.mode = QueryMode::kAuto;
      options.num_threads = threads;
      TransectSearchStats stats;
      auto drops = (*transect)->SearchDrops(3600.0, -1.0, options, &stats);
      ASSERT_TRUE(drops.ok()) << drops.status().ToString();
      EXPECT_EQ(stats.sensors_failed + stats.sensors_skipped, 0u);
      auto jumps = (*transect)->SearchJumps(3600.0, 1.0, options, &stats);
      ASSERT_TRUE(jumps.ok()) << jumps.status().ToString();
      EXPECT_FALSE(drops->empty() && jumps->empty());
    }
    auto sizes = (*transect)->GetSizes();
    ASSERT_TRUE(sizes.ok()) << sizes.status().ToString();
    auto health = (*transect)->Verify();
    ASSERT_TRUE(health.ok()) << health.status().ToString();
    EXPECT_EQ(health->sensors_scanned, kSensors);
    EXPECT_EQ(health->sensors_corrupt, 0);
    EXPECT_TRUE((*transect)->Checkpoint().ok());
    EXPECT_GT((*transect)->store_stats().evictions, 0u);
    EXPECT_EQ((*transect)->store_stats().eviction_failures, 0u);
  }

  const FaultInjectionVfs::Counters counters = vfs.counters();
  EXPECT_GT(counters.reads, 0u);
  EXPECT_EQ(counters.writes, 0u);
  EXPECT_EQ(counters.syncs, 0u);
  EXPECT_EQ(counters.dir_syncs, 0u);
  ExpectSameFiles(before, FileTree(dir_));
}

INSTANTIATE_TEST_SUITE_P(Wal, ReadsWriteNothingTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "WalOn" : "WalOff";
                         });

class CleanCheckpointTest : public FaultInjectionTest {
 protected:
  void TearDown() override {
    std::remove(Wal::PathFor(path_).c_str());
    FaultInjectionTest::TearDown();
  }
  static SegDiffOptions Options(Vfs* vfs) {
    SegDiffOptions options;
    options.vfs = vfs;
    options.wal = false;  // nothing but the close checkpoint persists
    return options;
  }
};

// Without a WAL, an appended observation is only in memory until the
// close checkpoint writes it: the close must not mistake the store for
// clean. Round 0 appends one observation and does not flush: the
// segmenter only buffers it, so no page changes and the ingest-state
// blob alone records it. Round 1 appends and flushes one more, which
// writes feature rows.
TEST_F(CleanCheckpointTest, FlushedObservationSurvivesCloseAndCrash) {
  const Series series = MakeSeries(1);
  const size_t head = series.size() - 2;
  {
    auto store = SegDiffIndex::Open(path_, Options(nullptr));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (size_t i = 0; i < head; ++i) {
      ASSERT_TRUE(
          (*store)->AppendObservation(series[i].t, series[i].v).ok());
    }
    ASSERT_TRUE((*store)->FlushPending().ok());
  }
  FaultInjectionVfs vfs;
  for (size_t round = 0; round < 2; ++round) {
    const size_t next = head + round;
    {
      auto store = SegDiffIndex::Open(path_, Options(&vfs));
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      ASSERT_EQ((*store)->num_observations(), next);
      ASSERT_TRUE(
          (*store)->AppendObservation(series[next].t, series[next].v).ok());
      if (round == 0) {
        EXPECT_EQ((*store)->db()->buffer_pool()->dirty_pages(), 0u);
        EXPECT_FALSE((*store)->db()->pager()->has_unsynced_writes());
      } else {
        ASSERT_TRUE((*store)->FlushPending().ok());
      }
    }
    EXPECT_GT(vfs.counters().syncs, 0u) << "round " << round;
    ASSERT_TRUE(vfs.Crash().ok());
    vfs.Reset();
  }
  auto store = SegDiffIndex::Open(path_, Options(&vfs));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->num_observations(), series.size());
}

// A torn log tail — an unacknowledged frame a crash cut short — is all
// a reopened WAL store may have left to persist: its close still trims
// it, so the next open finds a whole log.
TEST_F(CleanCheckpointTest, TornWalTailIsTrimmedAtClose) {
  SegDiffOptions options = Options(nullptr);
  options.wal = true;
  {
    auto store = SegDiffIndex::Open(path_, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->IngestSeries(MakeSeries(1)).ok());
  }
  {
    auto file = Vfs::Default()->OpenFile(Wal::PathFor(path_), false);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    auto size = (*file)->Size();
    ASSERT_TRUE(size.ok());
    const char junk[7] = {'\x13', '\x37', '\x00', '\xff', '\x42', '\x42',
                          '\x42'};
    ASSERT_TRUE((*file)->Write(*size, junk, sizeof(junk)).ok());
  }
  ASSERT_TRUE(Wal::Scrub(Vfs::Default(), path_).torn_tail);
  {
    auto store = SegDiffIndex::Open(path_, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    const WalInfo wal = (*store)->db()->GetWalInfo();
    EXPECT_EQ(wal.recovered_records, 0u);
    EXPECT_EQ(wal.trimmed_tail_bytes, 7u);
  }
  const WalScrubReport healed = Wal::Scrub(Vfs::Default(), path_);
  EXPECT_TRUE(healed.clean()) << healed.message;
  EXPECT_FALSE(healed.torn_tail) << healed.message;
}

// A dirty page stolen by the buffer pool leaves no dirty frame and no
// catalog change behind, only a data-file write the pager has not
// synced: the close checkpoint must still fsync it.
TEST_F(CleanCheckpointTest, StolenPageIsSyncedAtClose) {
  DatabaseOptions options;
  options.wal = false;
  PageId spare = kInvalidPageId;
  {
    auto db = Database::Open(path_, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto schema = DoubleSchema({"a"});
    ASSERT_TRUE(schema.ok());
    auto table = (*db)->CreateTable("t", *schema);
    ASSERT_TRUE(table.ok());
    for (int i = 0; i < 8000; ++i) {
      ASSERT_TRUE((*table)->InsertDoubles({double(i)}).ok());
    }
    auto page = (*db)->buffer_pool()->AllocatePinned();
    ASSERT_TRUE(page.ok());
    spare = page->page_id();
  }
  FaultInjectionVfs vfs;
  options.vfs = &vfs;
  options.create_if_missing = false;
  options.buffer_pool_pages = 2;
  {
    auto db = Database::Open(path_, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    BufferPool* pool = (*db)->buffer_pool();
    {
      auto page = pool->FetchMut(spare);
      ASSERT_TRUE(page.ok()) << page.status().ToString();
      std::memcpy(page->data(), "stolen", 6);
      page->MarkDirty();
    }
    // Scanning the table cycles every page through the 2-frame pool,
    // stealing the dirty spare page on the way.
    auto table = (*db)->GetTable("t");
    ASSERT_TRUE(table.ok());
    uint64_t rows = 0;
    ASSERT_TRUE(SeqScan(**table, Predicate::True(),
                        [&rows](const char*, RecordId) -> Status {
                          ++rows;
                          return Status::OK();
                        })
                    .ok());
    ASSERT_EQ(rows, 8000u);
    ASSERT_EQ(pool->dirty_pages(), 0u);
    ASSERT_GT(pool->stats().dirty_writebacks, 0u);
    ASSERT_TRUE((*db)->pager()->has_unsynced_writes());
    ASSERT_TRUE((*db)->Close().ok());
  }
  EXPECT_GT(vfs.counters().syncs, 0u);
  ASSERT_TRUE(vfs.Crash().ok());
  vfs.Reset();
  auto pager = Pager::Open(path_, /*create=*/false, &vfs);
  ASSERT_TRUE(pager.ok()) << pager.status().ToString();
  char buf[kPageSize];
  ASSERT_TRUE((*pager)->ReadPage(spare, buf).ok());
  EXPECT_EQ(std::string(buf, 6), "stolen");
}

// The same stolen page with the WAL on: the steal logs the page's undo
// image, and a checkpoint whose only reason to run is that page must
// sync it without rewriting the unchanged catalog chain, so it appends
// no record (no undo image per chain page).
TEST_F(CleanCheckpointTest, StolenPageCheckpointAppendsNoWalRecord) {
  DatabaseOptions options;
  options.wal = false;
  PageId spare = kInvalidPageId;
  {
    auto db = Database::Open(path_, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto schema = DoubleSchema({"a"});
    ASSERT_TRUE(schema.ok());
    auto table = (*db)->CreateTable("t", *schema);
    ASSERT_TRUE(table.ok());
    for (int i = 0; i < 8000; ++i) {
      ASSERT_TRUE((*table)->InsertDoubles({double(i)}).ok());
    }
    auto page = (*db)->buffer_pool()->AllocatePinned();
    ASSERT_TRUE(page.ok());
    spare = page->page_id();
  }
  FaultInjectionVfs vfs;
  options.vfs = &vfs;
  options.create_if_missing = false;
  options.buffer_pool_pages = 2;
  options.wal = true;
  options.wal_group_commit_ms = 0;
  {
    auto db = Database::Open(path_, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    {
      auto page = (*db)->buffer_pool()->FetchMut(spare);
      ASSERT_TRUE(page.ok()) << page.status().ToString();
      std::memcpy(page->data(), "stolen", 6);
      page->MarkDirty();
    }
    auto table = (*db)->GetTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(SeqScan(**table, Predicate::True(),
                        [](const char*, RecordId) { return Status::OK(); })
                    .ok());
    ASSERT_EQ((*db)->buffer_pool()->dirty_pages(), 0u);
    ASSERT_TRUE((*db)->pager()->has_unsynced_writes());
    const uint64_t appends = (*db)->GetWalInfo().stats.appends;
    ASSERT_GT(appends, 0u) << "the steal logged no undo image";
    ASSERT_TRUE((*db)->Checkpoint().ok());
    EXPECT_EQ((*db)->GetWalInfo().stats.appends, appends);
    EXPECT_FALSE((*db)->pager()->has_unsynced_writes());
  }
  ASSERT_TRUE(vfs.Crash().ok());
  vfs.Reset();
  auto pager = Pager::Open(path_, /*create=*/false, &vfs);
  ASSERT_TRUE(pager.ok()) << pager.status().ToString();
  char buf[kPageSize];
  ASSERT_TRUE((*pager)->ReadPage(spare, buf).ok());
  EXPECT_EQ(std::string(buf, 6), "stolen");
}

// A zone-map blob that was dropped from the catalog is rebuilt by the
// first search; the close must persist the rebuilt map, after which the
// store is clean again.
TEST_F(CleanCheckpointTest, RebuiltZoneMapIsPersisted) {
  const std::string key = std::string(kZoneMapBlobPrefix) + "drop1";
  auto catalog_blobs = [this]() -> std::map<std::string, std::string> {
    auto pager = Pager::Open(path_, /*create=*/false);
    EXPECT_TRUE(pager.ok()) << pager.status().ToString();
    if (!pager.ok()) return {};
    BufferPool pool(pager->get(), 16);
    auto catalog = ReadCatalog(&pool);
    EXPECT_TRUE(catalog.ok()) << catalog.status().ToString();
    if (!catalog.ok()) return {};
    return catalog->blobs;
  };
  {
    auto store = SegDiffIndex::Open(path_, Options(nullptr));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->IngestSeries(MakeSeries(2)).ok());
  }
  const std::map<std::string, std::string> built = catalog_blobs();
  ASSERT_EQ(built.count(key), 1u);
  {
    auto pager = Pager::Open(path_, /*create=*/false);
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    BufferPool pool(pager->get(), 16);
    auto catalog = ReadCatalog(&pool);
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
    catalog->blobs.erase(key);
    ASSERT_TRUE(WriteCatalog(&pool, EncodeCatalog(*catalog)).ok());
    ASSERT_TRUE(pool.FlushAll().ok());
    ASSERT_TRUE((*pager)->Sync().ok());
  }
  ASSERT_EQ(catalog_blobs().count(key), 0u);
  FaultInjectionVfs vfs;
  for (int round = 0; round < 2; ++round) {
    vfs.Reset();
    {
      auto store = SegDiffIndex::Open(path_, Options(&vfs));
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      auto drops = (*store)->SearchDrops(3600.0, -1.0);
      ASSERT_TRUE(drops.ok()) << drops.status().ToString();
    }
    if (round == 0) {
      EXPECT_GT(vfs.counters().syncs, 0u) << "rebuilt map not persisted";
    } else {
      EXPECT_EQ(vfs.counters().writes, 0u) << "persisted map read back dirty";
    }
  }
  const std::map<std::string, std::string> rebuilt = catalog_blobs();
  ASSERT_EQ(rebuilt.count(key), 1u);
  EXPECT_EQ(rebuilt.at(key), built.at(key));
}

// ---------------------------------------------------------------------------
// WAL crash recovery (DESIGN.md §13): acknowledged group commits survive
// any crash, torn log tails are detected and trimmed, replay is
// idempotent, and searches read consistent snapshots during ingest.

class WalCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("walcrash");
    golden_path_ = UniqueTestPath("walcrash", "_golden.db");
    RemoveStores();
    series_ = MakeSeries(1);
  }
  void TearDown() override { RemoveStores(); }

  void RemoveStores() {
    std::remove(path_.c_str());
    std::remove(Wal::PathFor(path_).c_str());
    std::remove(golden_path_.c_str());
    std::remove(Wal::PathFor(golden_path_).c_str());
  }

  /// WAL on with a zero group-commit window: once FlushPending() returns
  /// OK, everything appended so far must be on stable storage.
  SegDiffOptions Options(Vfs* vfs) const {
    SegDiffOptions options;
    options.build_indexes = false;
    options.vfs = vfs;
    options.wal_group_commit_ms = 0;
    return options;
  }

  /// Ingests `series` with a group commit every kFlushEvery observations
  /// and NO checkpoints — recovery must come from WAL replay alone.
  /// Stops at the first injected fault. Returns the number of
  /// observations covered by the last acknowledged FlushPending().
  ///
  /// FlushPending() finalizes the segmenter's trailing segment, so the
  /// flush schedule is part of the store's logical content; the golden
  /// oracle and every recovery tail must follow the same cadence
  /// (recovery replays logged flush markers to reproduce it).
  static uint64_t IngestWithGroupCommits(SegDiffIndex* store,
                                         const Series& series,
                                         size_t start = 0,
                                         size_t end = static_cast<size_t>(-1)) {
    if (end > series.size()) end = series.size();
    uint64_t acked = start;
    for (size_t i = start; i < end; ++i) {
      if (!store->AppendObservation(series[i].t, series[i].v).ok()) {
        return acked;
      }
      if ((i + 1) % kFlushEvery == 0) {
        if (!store->FlushPending().ok()) {
          return acked;
        }
        acked = i + 1;
      }
    }
    if (store->FlushPending().ok()) {
      acked = end;
    }
    return acked;
  }

  /// The oracle: the full series ingested faultlessly under the same
  /// group-commit cadence as the crash runs.
  std::unique_ptr<SegDiffIndex> BuildGolden() {
    auto store = SegDiffIndex::Open(golden_path_, Options(nullptr));
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ(IngestWithGroupCommits(store->get(), series_), series_.size());
    return std::move(store).value();
  }

  /// The acknowledged-means-durable contract after a crash: nothing past
  /// the last OK FlushPending() may be missing, and appending the
  /// remaining tail (same flush cadence) reproduces the golden tables
  /// byte for byte.
  void CheckNothingAckedWasLost(FaultInjectionVfs* vfs, uint64_t acked,
                                SegDiffIndex* golden) {
    if (!vfs->FileExists(path_)) {
      // The store may vanish in a crash only if no group commit ever
      // acknowledged it (the first commit fsyncs the directory).
      EXPECT_EQ(acked, 0u) << "acknowledged store vanished in the crash";
      return;
    }
    auto reopened = SegDiffIndex::Open(path_, Options(vfs));
    if (!reopened.ok()) {
      EXPECT_EQ(acked, 0u)
          << "store with acknowledged commits failed to reopen: "
          << reopened.status().ToString();
      EXPECT_TRUE(reopened.status().IsCorruption())
          << reopened.status().ToString();
      return;
    }
    SegDiffIndex* store = reopened->get();
    EXPECT_GE(store->num_observations(), acked)
        << "observations acknowledged by FlushPending were lost";
    const uint64_t resumed_at = store->num_observations();
    ASSERT_LE(resumed_at, series_.size());
    ASSERT_EQ(IngestWithGroupCommits(store, series_, resumed_at),
              series_.size());
    ExpectSameTables(store, golden);
  }

  /// Byte-for-byte file copy (the "kill -9 disk state" capture below).
  static void CopyFileBytes(const std::string& from, const std::string& to) {
    std::ifstream in(from, std::ios::binary);
    std::ofstream out(to, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(in.good() && out.good()) << "copy " << from << " -> " << to;
    out << in.rdbuf();
    ASSERT_TRUE(out.good()) << "copy " << from << " -> " << to;
  }

  static constexpr uint64_t kFlushEvery = 20;

  std::string path_;
  std::string golden_path_;
  Series series_;
};

// Crash after the Nth write, for a seeded sample of N: everything the
// store acknowledged before the fault must survive recovery.
TEST_F(WalCrashTest, AckedGroupCommitsSurviveWriteCrashes) {
  auto golden = BuildGolden();
  FaultInjectionVfs vfs;

  // Dry run: count the writes a faultless WAL-backed ingest performs.
  {
    auto store = SegDiffIndex::Open(path_, Options(&vfs));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_EQ(IngestWithGroupCommits(store->get(), series_), series_.size());
  }
  const uint64_t total_writes = vfs.counters().writes;
  ASSERT_GT(total_writes, 0u);

  const uint64_t seed =
      static_cast<uint64_t>(GetEnvInt64("SEGDIFF_FAULT_SEED", 20080325));
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<uint64_t> pick(0, total_writes - 1);
  std::vector<uint64_t> fault_points = {0, 1, total_writes - 1};
  for (int i = 0; i < 9; ++i) {
    fault_points.push_back(pick(rng));
  }

  for (const uint64_t n : fault_points) {
    SCOPED_TRACE("device dies after write " + std::to_string(n) + " (seed " +
                 std::to_string(seed) + ")");
    std::remove(path_.c_str());
    std::remove(Wal::PathFor(path_).c_str());
    vfs.Reset();
    vfs.FailAfterWrites(static_cast<int64_t>(n));
    uint64_t acked = 0;
    {
      auto store = SegDiffIndex::Open(path_, Options(&vfs));
      if (store.ok()) {
        acked = IngestWithGroupCommits(store->get(), series_);
      }
      ASSERT_TRUE(vfs.Crash().ok());
    }
    vfs.Reset();
    CheckNothingAckedWasLost(&vfs, acked, golden.get());
  }
}

// Same sweep over fsync fault points: a group commit whose fsync failed
// is not acknowledged, so the contract is identical.
TEST_F(WalCrashTest, AckedGroupCommitsSurviveSyncCrashes) {
  auto golden = BuildGolden();
  FaultInjectionVfs vfs;
  {
    auto store = SegDiffIndex::Open(path_, Options(&vfs));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_EQ(IngestWithGroupCommits(store->get(), series_), series_.size());
  }
  const uint64_t total_syncs = vfs.counters().syncs;
  ASSERT_GT(total_syncs, 0u);

  const uint64_t seed =
      static_cast<uint64_t>(GetEnvInt64("SEGDIFF_FAULT_SEED", 20080325));
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<uint64_t> pick(0, total_syncs - 1);
  std::vector<uint64_t> fault_points = {0, 1, total_syncs - 1};
  for (int i = 0; i < 9; ++i) {
    fault_points.push_back(pick(rng));
  }

  for (const uint64_t n : fault_points) {
    SCOPED_TRACE("device dies after fsync " + std::to_string(n) + " (seed " +
                 std::to_string(seed) + ")");
    std::remove(path_.c_str());
    std::remove(Wal::PathFor(path_).c_str());
    vfs.Reset();
    vfs.FailAfterSyncs(static_cast<int64_t>(n));
    uint64_t acked = 0;
    {
      auto store = SegDiffIndex::Open(path_, Options(&vfs));
      if (store.ok()) {
        acked = IngestWithGroupCommits(store->get(), series_);
      }
      ASSERT_TRUE(vfs.Crash().ok());
    }
    vfs.Reset();
    CheckNothingAckedWasLost(&vfs, acked, golden.get());
  }
}

// A torn tail — a frame half-written when the power died — is trimmed:
// the scrubber reports it (without calling the log corrupt) and recovery
// replays every complete frame before it.
TEST_F(WalCrashTest, TornWalTailIsDetectedAndTrimmed) {
  auto golden = BuildGolden();
  FaultInjectionVfs vfs;
  uint64_t acked = 0;
  {
    auto store = SegDiffIndex::Open(path_, Options(&vfs));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    // Group-commit half the series (cut at a flush boundary so the
    // cadence matches the golden run), then crash: the log holds the
    // prefix, the data file only the Open-time catalog checkpoint.
    const size_t prefix = (series_.size() / 2 / kFlushEvery) * kFlushEvery;
    ASSERT_GE(prefix, kFlushEvery);
    acked = IngestWithGroupCommits(store->get(), series_, 0, prefix);
    ASSERT_EQ(acked, prefix);
    ASSERT_TRUE(vfs.Crash().ok());
  }
  vfs.Reset();

  // Tear the tail: append a partial frame's worth of garbage.
  const std::string wal_path = Wal::PathFor(path_);
  {
    auto file = Vfs::Default()->OpenFile(wal_path, /*create=*/false);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    auto size = (*file)->Size();
    ASSERT_TRUE(size.ok());
    const char junk[7] = {'\x13', '\x37', '\x00', '\xff', '\x42', '\x42',
                          '\x42'};
    ASSERT_TRUE((*file)->Write(*size, junk, sizeof(junk)).ok());
  }

  const WalScrubReport torn = Wal::Scrub(Vfs::Default(), path_);
  EXPECT_TRUE(torn.exists);
  EXPECT_FALSE(torn.corrupt) << torn.message;
  EXPECT_TRUE(torn.torn_tail);
  EXPECT_GT(torn.frames, 0u);

  CheckNothingAckedWasLost(&vfs, acked, golden.get());

  // Recovery overwrote the torn bytes; the log is whole again.
  const WalScrubReport healed = Wal::Scrub(Vfs::Default(), path_);
  EXPECT_TRUE(healed.clean()) << healed.message;
  EXPECT_FALSE(healed.torn_tail) << healed.message;
}

// A non-fresh store paired with a log whose generation starts beyond
// the store's applied LSN + 1 — a mismatched or foreign sidecar whose
// earlier generations covered LSNs this data file never applied — is
// refused loudly. Silently adopting it would assume the records in
// (applied, start_lsn) reached the data file.
TEST_F(WalCrashTest, MismatchedWalGenerationIsRefused) {
  {
    auto store = SegDiffIndex::Open(path_, Options(nullptr));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_EQ(IngestWithGroupCommits(store->get(), series_), series_.size());
  }  // close checkpoints: the store now has a non-zero applied LSN

  // Forge a structurally valid, empty WAL generation starting far past
  // anything this data file applied.
  char header[kWalHeaderSize];
  std::memset(header, 0, sizeof(header));
  EncodeFixed32(header, kWalMagic);
  EncodeFixed32(header + 4, kWalVersion);
  EncodeFixed64(header + 8, uint64_t{1} << 40);  // start_lsn
  EncodeFixed32(header + 24, Crc32c(header, 24));
  {
    std::ofstream out(Wal::PathFor(path_),
                      std::ios::binary | std::ios::trunc);
    out.write(header, sizeof(header));
    ASSERT_TRUE(out.good());
  }

  auto reopened = SegDiffIndex::Open(path_, Options(nullptr));
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption())
      << reopened.status().ToString();

  // The remedy the diagnostic names: remove the stale sidecar.
  std::remove(Wal::PathFor(path_).c_str());
  auto recovered = SegDiffIndex::Open(path_, Options(nullptr));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->num_observations(), series_.size());
}

// A raw (non-engine) database logs one kRowAppend record per row from
// each insert path — Table::Insert, InsertDoubles and a SQL INSERT — and
// replays them unlogged. A crash before any checkpoint brings every row
// back in scan order with its index entries, and a second crash before
// a checkpoint replays the same log into byte-identical tables.
TEST_F(WalCrashTest, RawRowAppendsSurviveCrashAndReplayIdempotently) {
  FaultInjectionVfs vfs;
  DatabaseOptions options;
  options.vfs = &vfs;
  options.wal_group_commit_ms = 0;
  std::vector<std::string> expected;
  {
    auto db = Database::Open(path_, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto schema = DoubleSchema({"a", "b"});
    ASSERT_TRUE(schema.ok());
    auto table = (*db)->CreateTable("t", *schema);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    ASSERT_TRUE((*table)->CreateIndex("t_b", {"b"}).ok());
    // The index build is not logged: make it durable before the rows.
    ASSERT_TRUE((*db)->Checkpoint().ok());
    sql::Engine engine(db->get());
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE((*table)->Insert(DoubleRow({3.0 * i, -3.0 * i})).ok());
      ASSERT_TRUE((*table)->InsertDoubles({3.0 * i + 1, 7.0 - i}).ok());
      const std::string insert = "INSERT INTO t VALUES (" +
                                 std::to_string(3 * i + 2) + ", " +
                                 std::to_string(100 - i) + ")";
      auto inserted = engine.Execute(insert);
      ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
    }
    expected = TableRecords(db->get(), "t");
    ASSERT_EQ(expected.size(), 120u);
    ASSERT_TRUE(vfs.Crash().ok());
    (*db)->Abandon();
  }
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("reopen #" + std::to_string(round + 1));
    vfs.Reset();
    auto db = Database::Open(path_, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    // One record per row, whichever path inserted it.
    EXPECT_EQ((*db)->GetWalInfo().recovered_records, expected.size());
    EXPECT_EQ(TableRecords(db->get(), "t"), expected);
    auto table = (*db)->GetTable("t");
    ASSERT_TRUE(table.ok());
    auto index = (*table)->GetIndex("t_b");
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    EXPECT_TRUE((*index)->CheckInvariants().ok());
    EXPECT_EQ((*index)->entry_count(), expected.size());
    ASSERT_TRUE(vfs.Crash().ok());
    (*db)->Abandon();
  }
}

// A frame whose LSN, length and CRC are all valid but whose type byte
// lies outside the four record kinds (5 is a retired meta-blob record,
// 0 was never written) ends the scan like any torn frame: the frames
// before it are recovered, everything from it on is the trimmed tail,
// and scrub calls the log torn, not corrupt.
TEST_F(WalCrashTest, RecordTypeOutsideTheFourKindsEndsTheScan) {
  auto frame = [](uint64_t lsn, uint8_t type, const std::string& payload) {
    std::string out(kWalFrameOverhead + payload.size(), '\0');
    EncodeFixed64(out.data(), lsn);
    EncodeFixed32(out.data() + 8, static_cast<uint32_t>(payload.size()));
    out[12] = static_cast<char>(type);
    payload.copy(out.data() + kWalFrameHeaderSize, payload.size());
    EncodeFixed32(out.data() + kWalFrameHeaderSize + payload.size(),
                  Crc32c(out.data(), kWalFrameHeaderSize + payload.size()));
    return out;
  };
  std::string header(kWalHeaderSize, '\0');
  EncodeFixed32(header.data(), kWalMagic);
  EncodeFixed32(header.data() + 4, kWalVersion);
  EncodeFixed64(header.data() + 8, 1);  // start_lsn
  EncodeFixed32(header.data() + 24, Crc32c(header.data(), 24));
  std::string observation(16, '\0');
  EncodeDouble(observation.data(), 60.0);
  EncodeDouble(observation.data() + 8, -2.5);
  const std::string put_meta("\x03\x00keyblob", 9);  // the retired shape
  const auto kObservation = static_cast<uint8_t>(WalRecordType::kObservation);
  const auto kFlush = static_cast<uint8_t>(WalRecordType::kFlush);
  const std::string whole =
      header + frame(1, kObservation, observation) + frame(2, kFlush, "");

  for (const uint8_t bad_type : {uint8_t{5}, uint8_t{0}}) {
    SCOPED_TRACE("type byte " + std::to_string(bad_type));
    // A valid frame after the bad one shows the scan stops, not skips.
    const std::string tail =
        frame(3, bad_type, put_meta) + frame(4, kObservation, observation);
    {
      std::ofstream out(Wal::PathFor(path_),
                        std::ios::binary | std::ios::trunc);
      out << whole << tail;
      ASSERT_TRUE(out.good());
    }

    const WalScrubReport scrub = Wal::Scrub(Vfs::Default(), path_);
    EXPECT_FALSE(scrub.corrupt) << scrub.message;
    EXPECT_TRUE(scrub.torn_tail);
    EXPECT_EQ(scrub.frames, 2u);
    EXPECT_EQ(scrub.last_lsn, 2u);
    EXPECT_EQ(scrub.torn_tail_bytes, tail.size());

    WalOptions wal_options;
    wal_options.group_commit_ms = 0;
    auto wal = Wal::Open(Vfs::Default(), path_, wal_options, 1);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    const std::vector<WalRecord> recovered = (*wal)->TakeRecoveredRecords();
    ASSERT_EQ(recovered.size(), 2u);
    EXPECT_EQ(recovered[0].lsn, 1u);
    EXPECT_EQ(recovered[0].type, WalRecordType::kObservation);
    EXPECT_EQ(recovered[1].lsn, 2u);
    EXPECT_EQ(recovered[1].type, WalRecordType::kFlush);
    EXPECT_EQ((*wal)->trimmed_tail_bytes(), tail.size());
    EXPECT_EQ((*wal)->last_lsn(), 2u);
  }
}

// The opposite crash model from FaultInjectionVfs::Crash(): the process
// dies but every write it issued SURVIVES (kill -9 — the OS page cache
// drains to disk after the process is gone). Simulated by copying the
// db + wal files of a live store mid-ingest: a tiny buffer pool forces
// dirty-page steals, so the copy holds post-checkpoint page writes the
// header and catalog do not describe yet. Recovery must roll those
// pages back to their undo images before logical replay — without
// them, replay double-applies onto the stolen state.
TEST_F(WalCrashTest, PreservedWritesKillCrashModelRecovers) {
  auto golden = BuildGolden();
  SegDiffOptions options = Options(nullptr);
  options.buffer_pool_pages = 8;
  const std::string copy = UniqueTestPath("walcrash", "_copy.db");
  std::remove(copy.c_str());
  std::remove(Wal::PathFor(copy).c_str());
  const size_t kill_at = series_.size() / 2 + 7;  // mid group commit
  uint64_t acked = 0;
  {
    auto store = SegDiffIndex::Open(path_, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    // The group-commit cadence without the helper's trailing flush: a
    // flush at kill_at would be a segment boundary golden doesn't have.
    for (size_t i = 0; i < kill_at; ++i) {
      ASSERT_TRUE(
          (*store)->AppendObservation(series_[i].t, series_[i].v).ok());
      if ((i + 1) % kFlushEvery == 0) {
        ASSERT_TRUE((*store)->FlushPending().ok());
        acked = i + 1;
      }
    }
    ASSERT_GT(acked, 0u);
    CopyFileBytes(path_, copy);
    CopyFileBytes(Wal::PathFor(path_), Wal::PathFor(copy));
    // Only the copy "crashed"; the original closes normally below.
  }
  auto reopened = SegDiffIndex::Open(copy, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  SegDiffIndex* store = reopened->get();
  EXPECT_GE(store->num_observations(), acked)
      << "observations acknowledged by FlushPending were lost";
  const uint64_t resumed_at = store->num_observations();
  ASSERT_LE(resumed_at, series_.size());
  ASSERT_EQ(IngestWithGroupCommits(store, series_, resumed_at),
            series_.size());
  ExpectSameTables(store, golden.get());
  std::remove(copy.c_str());
  std::remove(Wal::PathFor(copy).c_str());
}

// Replaying the same log twice yields byte-identical tables: recovery
// must be idempotent, and a read-only open (Abandon) must not advance
// the store's on-disk state.
TEST_F(WalCrashTest, ReplayIsIdempotentByteForByte) {
  FaultInjectionVfs vfs;
  {
    auto store = SegDiffIndex::Open(path_, Options(&vfs));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_GT(IngestWithGroupCommits(store->get(), series_), 0u);
    ASSERT_TRUE(vfs.Crash().ok());
  }
  vfs.Reset();

  std::vector<std::vector<std::string>> first, second;
  uint64_t first_count = 0, second_count = 0;
  for (int round = 0; round < 2; ++round) {
    auto store = SegDiffIndex::Open(path_, Options(&vfs));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    std::vector<std::vector<std::string>>& out = round == 0 ? first : second;
    for (const char* name : kSegDiffTables) {
      out.push_back(TableRecords((*store)->db(), name));
    }
    (round == 0 ? first_count : second_count) =
        (*store)->num_observations();
    // Walk away without flushing: replay stays in memory, the disk
    // state (data file AND log) is untouched for the next round.
    (*store)->db()->Abandon();
  }
  EXPECT_EQ(first_count, second_count);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i])
        << "replay #2 diverged in table " << kSegDiffTables[i];
  }
}

// Searches racing a live writer must read consistent snapshots: every
// concurrent result is a subset of the final serial answer, and once
// ingest finishes the answers match exactly. Run under TSan to verify
// the locking protocol, not just the results.
TEST_F(WalCrashTest, SnapshotSearchesMatchSerialUnderConcurrentIngest) {
  static constexpr double kT = 3600.0;
  static constexpr double kV = -1.0;

  // Serial oracle: same flush cadence, searched with nothing running.
  auto golden = BuildGolden();
  auto expected = golden->SearchDrops(kT, kV);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  std::set<std::array<double, 4>> allowed;
  for (const PairId& id : *expected) {
    allowed.insert({id.t_d, id.t_c, id.t_b, id.t_a});
  }

  SegDiffOptions options = Options(nullptr);
  options.build_indexes = true;  // exercise the IndexScan snapshot path
  auto opened = SegDiffIndex::Open(path_, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  SegDiffIndex* store = opened->get();

  std::atomic<bool> done{false};
  std::atomic<uint64_t> searches{0};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      const QueryMode kModes[] = {QueryMode::kSeqScan, QueryMode::kIndexScan,
                                  QueryMode::kAuto};
      uint64_t iter = 0;
      while (!done.load(std::memory_order_acquire)) {
        SearchOptions search;
        search.mode = kModes[iter++ % 3];
        search.num_threads = r == 0 ? 2 : 0;  // parallel + serial readers
        SearchStats stats;
        auto result = store->SearchDrops(kT, kV, search, &stats);
        if (!result.ok()) {
          ++violations;
          break;
        }
        ++searches;
        if (stats.snapshot_observations > series_.size()) {
          ++violations;
        }
        for (const PairId& id : *result) {
          if (allowed.find({id.t_d, id.t_c, id.t_b, id.t_a}) ==
              allowed.end()) {
            ++violations;  // a pair the serial oracle never produces
          }
        }
      }
    });
  }

  ASSERT_EQ(IngestWithGroupCommits(store, series_), series_.size());
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(violations.load(), 0)
      << "a concurrent search returned an error or a phantom pair";
  EXPECT_GT(searches.load(), 0u);

  // Quiesced, the concurrent store answers exactly like the oracle.
  auto final_result = store->SearchDrops(kT, kV);
  ASSERT_TRUE(final_result.ok()) << final_result.status().ToString();
  ASSERT_EQ(final_result->size(), expected->size());
  for (size_t i = 0; i < final_result->size(); ++i) {
    EXPECT_TRUE((*final_result)[i] == (*expected)[i]) << "pair " << i;
  }
}

// The Exh store's variant of the same race: appends materialize pairs
// eagerly, searches walk the (dt, dv) B+-tree, and every concurrent
// IndexScan answer must still be a subset of the final one.
TEST_F(WalCrashTest, ExhSnapshotSearchesAreConsistentUnderIngest) {
  static constexpr double kT = 3600.0;
  static constexpr double kV = -1.0;

  ExhOptions options;
  options.vfs = nullptr;
  options.wal_group_commit_ms = 0;
  auto opened = ExhIndex::Open(path_, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ExhIndex* store = opened->get();

  // Exh needs no flush cadence for content: rows appear per append.
  // Golden answer first, computed serially on a throwaway store.
  std::set<std::array<double, 3>> allowed;
  {
    ExhOptions golden_options = options;
    auto golden = ExhIndex::Open(golden_path_, golden_options);
    ASSERT_TRUE(golden.ok()) << golden.status().ToString();
    for (const Sample& s : series_) {
      ASSERT_TRUE((*golden)->AppendObservation(s.t, s.v).ok());
    }
    ASSERT_TRUE((*golden)->FlushPending().ok());
    auto expected = (*golden)->SearchDrops(kT, kV);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    for (const ExhEvent& e : *expected) {
      allowed.insert({e.t_start, e.t_end, e.dv});
    }
  }

  std::atomic<bool> done{false};
  std::atomic<uint64_t> searches{0};
  std::atomic<int> violations{0};
  std::thread reader([&] {
    SearchOptions search;
    search.mode = QueryMode::kIndexScan;
    while (!done.load(std::memory_order_acquire)) {
      auto result = store->SearchDrops(kT, kV, search);
      if (!result.ok()) {
        ++violations;
        break;
      }
      ++searches;
      for (const ExhEvent& e : *result) {
        if (allowed.find({e.t_start, e.t_end, e.dv}) == allowed.end()) {
          ++violations;
        }
      }
    }
  });

  for (size_t i = 0; i < series_.size(); ++i) {
    ASSERT_TRUE(store->AppendObservation(series_[i].t, series_[i].v).ok());
    if ((i + 1) % kFlushEvery == 0) {
      ASSERT_TRUE(store->FlushPending().ok());
    }
  }
  ASSERT_TRUE(store->FlushPending().ok());
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(violations.load(), 0)
      << "a concurrent Exh search returned an error or a phantom event";
  EXPECT_GT(searches.load(), 0u);

  auto final_result = store->SearchDrops(kT, kV);
  ASSERT_TRUE(final_result.ok()) << final_result.status().ToString();
  EXPECT_EQ(final_result->size(), allowed.size());
}

// WAL-before-data, on both engines: while the log cannot sync, an
// append fails with the log's error and applies nothing. Rows inserted
// anyway would be searchable although a crash loses them, and a later
// group commit (after a retried sync) could acknowledge them.
TEST_F(WalCrashTest, FailedWalAppendAppliesNothing) {
  FaultInjectionVfs vfs;
  auto check = [&](FeatureSink* store, auto feature_rows) {
    for (size_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(store->AppendObservation(series_[i].t, series_[i].v).ok());
    }
    const uint64_t observations = store->num_observations();
    const uint64_t rows = feature_rows();
    vfs.FailAfterSyncs(0);
    Status status = store->AppendObservation(series_[5].t, series_[5].v);
    EXPECT_TRUE(status.IsIOError()) << status.ToString();
    EXPECT_EQ(store->num_observations(), observations);
    EXPECT_EQ(feature_rows(), rows);
    ASSERT_TRUE(vfs.Crash().ok());
  };
  {
    auto segdiff = SegDiffIndex::Open(path_, Options(&vfs));
    ASSERT_TRUE(segdiff.ok()) << segdiff.status().ToString();
    SCOPED_TRACE("segdiff");
    check(segdiff->get(), [&] { return (*segdiff)->GetSizes().feature_rows; });
  }
  RemoveStores();
  vfs.Reset();
  ExhOptions options;
  options.vfs = &vfs;
  options.wal_group_commit_ms = 0;
  auto exh = ExhIndex::Open(path_, options);
  ASSERT_TRUE(exh.ok()) << exh.status().ToString();
  SCOPED_TRACE("exh");
  check(exh->get(), [&] { return (*exh)->GetSizes().feature_rows; });
}

}  // namespace
}  // namespace segdiff
