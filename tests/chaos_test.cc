// Deterministic chaos harness (DESIGN.md §14).
//
// Hundreds of seeded ingest -> fault -> reopen -> scrub -> repair ->
// differential-query cycles against a golden oracle. Each cycle draws a
// fault mode (none, seeded transient I/O, disk-full, device death +
// crash, silent bitrot) from a SEGDIFF_FAULT_SEED-derived RNG and
// asserts the graceful-degradation contract end to end:
//
//   - no acknowledged write is ever lost (kill the device whenever the
//     schedule says; the WAL's group commits are the durability line),
//   - nothing aborts, hangs, or silently returns wrong data — every
//     failure is a classified Status,
//   - a store that scrubs dirty repairs into a fresh scrub-clean store
//     that still answers searches,
//   - a store that scrubs clean resumes ingest and reproduces the
//     golden tables and search answers byte for byte.
//
// The default 200 cycles keep CI deterministic; SEGDIFF_CHAOS_CYCLES
// shrinks the sweep for smoke runs and SEGDIFF_FAULT_SEED explores a
// different schedule.

#include <array>
#include <atomic>
#include <cstdio>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "table_records.h"
#include "test_paths.h"

#include "common/env.h"
#include "common/vfs.h"
#include "segdiff/segdiff_index.h"
#include "storage/db.h"
#include "storage/fault_vfs.h"
#include "storage/pager.h"
#include "storage/wal.h"
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

/// Flips one bit of the byte at `offset` in `path` (silent media error).
void FlipByte(const std::string& path, uint64_t offset) {
  auto file = Vfs::Default()->OpenFile(path, /*create=*/false);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  char b = 0;
  ASSERT_TRUE((*file)->Read(offset, 1, &b).ok());
  b ^= 0x40;
  ASSERT_TRUE((*file)->Write(offset, &b, 1).ok());
  ASSERT_TRUE((*file)->Sync().ok());
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("chaos");
    golden_path_ = UniqueTestPath("chaos", "_golden.db");
    repaired_path_ = UniqueTestPath("chaos", "_repaired.db");
    RemoveStores();
    series_ = MakeSeries(1);
    ASSERT_GE(series_.size(), kChunk);
  }
  void TearDown() override { RemoveStores(); }

  void RemoveStores() {
    for (const std::string& p : {path_, golden_path_, repaired_path_}) {
      std::remove(p.c_str());
      std::remove(Wal::PathFor(p).c_str());
    }
  }

  /// WAL on with a zero group-commit window: once FlushPending() returns
  /// OK the appended prefix is acknowledged durable.
  SegDiffOptions Options(Vfs* vfs) const {
    SegDiffOptions options;
    options.build_indexes = false;  // heap-only keeps 200 cycles fast
    options.vfs = vfs;
    options.wal_group_commit_ms = 0;
    return options;
  }

  /// Ingests series_[start, end) with a group commit every kFlushEvery
  /// observations, stopping at the first injected fault. Returns the
  /// number of observations acknowledged by the last OK FlushPending().
  static uint64_t IngestWithGroupCommits(SegDiffIndex* store,
                                         const Series& series, size_t start,
                                         size_t end) {
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

  static constexpr uint64_t kFlushEvery = 20;
  static constexpr size_t kChunk = 120;  ///< observations per cycle

  std::string path_;
  std::string golden_path_;
  std::string repaired_path_;
  Series series_;
};

// The sweep itself. Every cycle must land in one of three terminal
// states — resumed-and-identical, scrubbed-dirty-then-repaired-clean,
// or corrupt-and-refused-with-nothing-acked — and nothing may abort.
TEST_F(ChaosTest, SeededFaultCycleSweep) {
  const uint64_t seed =
      static_cast<uint64_t>(GetEnvInt64("SEGDIFF_FAULT_SEED", 20080325));
  const int64_t cycles = GetEnvInt64("SEGDIFF_CHAOS_CYCLES", 200);
  std::mt19937_64 rng(seed);

  // Golden oracle: the chunk ingested faultlessly with the same cadence.
  auto golden = SegDiffIndex::Open(golden_path_, Options(nullptr));
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  ASSERT_EQ(IngestWithGroupCommits(golden->get(), series_, 0, kChunk),
            kChunk);
  auto expected = (*golden)->SearchDrops(3600.0, -1.0);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  FaultInjectionVfs vfs;
  uint64_t repairs = 0, refused = 0, resumed = 0;
  for (int64_t cycle = 0; cycle < cycles; ++cycle) {
    // Mode 0: no fault. 1: seeded transient I/O errors (the retry layer
    // must absorb most of them). 2: the disk fills. 3: the device dies
    // after a random write, then the power cuts. 4: a clean close
    // followed by silent bitrot in one page.
    const int mode = static_cast<int>(rng() % 5);
    SCOPED_TRACE("cycle " + std::to_string(cycle) + " mode " +
                 std::to_string(mode) + " (seed " + std::to_string(seed) +
                 ")");
    std::remove(path_.c_str());
    std::remove(Wal::PathFor(path_).c_str());
    std::remove(repaired_path_.c_str());
    std::remove(Wal::PathFor(repaired_path_).c_str());
    vfs.Reset();

    uint64_t acked = 0;
    {
      auto store = SegDiffIndex::Open(path_, Options(&vfs));
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      switch (mode) {
        case 1:
          vfs.SetTransientFaultRate(rng(), 1 + rng() % 25);
          break;
        case 2:
          vfs.SetDiskBudgetBytes(static_cast<int64_t>(rng() % (96 * 1024)));
          break;
        case 3:
          vfs.FailAfterWrites(static_cast<int64_t>(rng() % 400));
          break;
        default:
          break;
      }
      acked = IngestWithGroupCommits(store->get(), series_, 0, kChunk);
      if (mode == 3) {
        ASSERT_TRUE(vfs.Crash().ok());
      }
      // Close runs with the fault schedule still armed: a failing
      // close-time checkpoint must degrade, never abort.
    }
    vfs.Reset();  // the device heals

    if (mode == 4 && vfs.FileExists(path_)) {
      ASSERT_EQ(acked, kChunk);  // mode 4 ingested faultlessly
      auto file = Vfs::Default()->OpenFile(path_, /*create=*/false);
      ASSERT_TRUE(file.ok());
      auto size = (*file)->Size();
      ASSERT_TRUE(size.ok());
      const uint64_t pages = *size / kPageSize;
      if (pages > 1) {
        const uint64_t victim = 1 + rng() % (pages - 1);
        FlipByte(path_, victim * kPageSize + 64 + rng() % 1024);
      }
    }

    if (!vfs.FileExists(path_)) {
      // Only a store no commit ever acknowledged may vanish in a crash.
      EXPECT_EQ(acked, 0u) << "acknowledged store vanished";
      continue;
    }

    auto reopened = SegDiffIndex::Open(path_, Options(&vfs));
    if (!reopened.ok()) {
      ++refused;
      EXPECT_TRUE(reopened.status().IsCorruption())
          << "reopen must resume or report Corruption, got: "
          << reopened.status().ToString();
      if (mode != 4) {
        // Bitrot may hit any page; for every other mode the WAL keeps
        // acknowledged commits recoverable.
        EXPECT_EQ(acked, 0u)
            << "store with acknowledged commits refused to reopen: "
            << reopened.status().ToString();
      }
      // Salvage what the database layer can still read; the repaired
      // copy must come back scrub-clean.
      DatabaseOptions raw;
      raw.vfs = &vfs;
      raw.create_if_missing = false;
      auto damaged = Database::Open(path_, raw);
      if (!damaged.ok()) {
        raw.replay_wal = false;
        damaged = Database::Open(path_, raw);
      }
      if (!damaged.ok()) {
        continue;  // headers/catalog gone: nothing left to salvage
      }
      (*damaged)->Abandon();
      RepairReport report;
      ASSERT_TRUE((*damaged)->Repair(repaired_path_, &report).ok());
      DatabaseOptions check;
      check.vfs = &vfs;
      check.create_if_missing = false;
      auto fixed = Database::Open(repaired_path_, check);
      ASSERT_TRUE(fixed.ok()) << fixed.status().ToString();
      auto scrub = (*fixed)->Scrub();
      ASSERT_TRUE(scrub.ok()) << scrub.status().ToString();
      EXPECT_TRUE(scrub->clean()) << "repair left a dirty store";
      (*fixed)->Abandon();
      continue;
    }

    SegDiffIndex* store = reopened->get();
    EXPECT_GE(store->num_observations(), acked)
        << "observations acknowledged by FlushPending were lost";

    auto scrub = store->db()->Scrub();
    ASSERT_TRUE(scrub.ok()) << scrub.status().ToString();
    if (!scrub->clean()) {
      ++repairs;
      // Damaged but open: searches must degrade (flagged partial, with
      // stats), and repair must produce a scrub-clean store that still
      // answers.
      SearchStats stats;
      auto partial = store->SearchDrops(3600.0, -1.0, {}, &stats);
      EXPECT_TRUE(partial.ok() || partial.status().IsCorruption())
          << partial.status().ToString();
      RepairReport report;
      ASSERT_TRUE(store->Repair(repaired_path_, &report).ok());
      auto fixed = SegDiffIndex::Open(repaired_path_, Options(&vfs));
      ASSERT_TRUE(fixed.ok()) << fixed.status().ToString();
      auto fixed_scrub = (*fixed)->db()->Scrub();
      ASSERT_TRUE(fixed_scrub.ok()) << fixed_scrub.status().ToString();
      EXPECT_TRUE(fixed_scrub->clean()) << "repair left a dirty store";
      SearchStats fixed_stats;
      auto answers = (*fixed)->SearchDrops(3600.0, -1.0, {}, &fixed_stats);
      if (answers.ok()) {
        EXPECT_FALSE(fixed_stats.partial);
      } else {
        // Bitrot can eat a `segments`-table page, leaving feature rows
        // whose segment id no longer resolves. The salvaged store is
        // physically clean but logically lossy; the search must say so
        // loudly, never invent an answer.
        EXPECT_TRUE(answers.status().IsCorruption())
            << answers.status().ToString();
      }
      continue;
    }

    // Scrub-clean: finishing the tail must reproduce the golden store
    // and its search answers exactly.
    ++resumed;
    const uint64_t resumed_at = store->num_observations();
    ASSERT_LE(resumed_at, kChunk);
    ASSERT_EQ(IngestWithGroupCommits(store, series_, resumed_at, kChunk),
              kChunk);
    ExpectSameTables(store, golden->get());
    auto result = store->SearchDrops(3600.0, -1.0);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->size(), expected->size());
    for (size_t i = 0; i < result->size(); ++i) {
      EXPECT_TRUE((*result)[i] == (*expected)[i]) << "pair " << i;
    }
  }
  // The sweep is only meaningful if it actually exercised recovery.
  EXPECT_GT(resumed, 0u);
  std::printf("chaos: %lld cycles — %llu resumed clean, %llu repaired, "
              "%llu refused (seed %llu)\n",
              static_cast<long long>(cycles),
              static_cast<unsigned long long>(resumed),
              static_cast<unsigned long long>(repairs),
              static_cast<unsigned long long>(refused),
              static_cast<unsigned long long>(seed));
}

// Disk-full smoke: ENOSPC flips the store into read-only degraded mode.
// Acknowledged writes survive, searches keep answering, further writes
// fail fast with a NoSpace status, and close never aborts.
TEST_F(ChaosTest, DiskFullFlipsDegradedReadOnlyMode) {
  FaultInjectionVfs vfs;
  uint64_t acked = 0;
  size_t result_count = 0;
  {
    auto store = SegDiffIndex::Open(path_, Options(&vfs));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    acked = IngestWithGroupCommits(store->get(), series_, 0, 60);
    ASSERT_EQ(acked, 60u);
    auto healthy = (*store)->SearchDrops(3600.0, -1.0);
    ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
    result_count = healthy->size();

    vfs.SetDiskBudgetBytes(0);  // the disk is full: zero growth left
    Status failed;
    for (size_t i = 60; i < kChunk; ++i) {
      failed = (*store)->AppendObservation(series_[i].t, series_[i].v);
      if (failed.ok() && (i + 1) % kFlushEvery == 0) {
        failed = (*store)->FlushPending();
      }
      if (!failed.ok()) break;
    }
    ASSERT_FALSE(failed.ok()) << "a full disk accepted every write";
    EXPECT_TRUE(failed.IsNoSpace()) << failed.ToString();

    ASSERT_TRUE((*store)->db()->degraded());
    const StoreHealth health = (*store)->db()->GetHealth();
    EXPECT_TRUE(health.degraded);
    EXPECT_NE(health.degraded_reason.find("no-space"), std::string::npos)
        << health.degraded_reason;

    // Degraded mode is read-only, not down: searches keep answering from
    // the acknowledged state...
    SearchStats stats;
    auto degraded = (*store)->SearchDrops(3600.0, -1.0, {}, &stats);
    ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
    EXPECT_GE(degraded->size(), result_count);
    // ...writes fail fast without burning retries against the full disk...
    Status fast = (*store)->AppendObservation(series_[kChunk - 1].t + 1.0,
                                              0.0);
    ASSERT_TRUE(fast.IsNoSpace()) << fast.ToString();
    EXPECT_NE(std::string(fast.message()).find("degraded"),
              std::string::npos)
        << fast.ToString();
    EXPECT_TRUE((*store)->Checkpoint().IsNoSpace());
    // ...and close is clean (no checkpoint against the full device).
  }
  vfs.Reset();  // space freed

  // Nothing acknowledged was lost: the WAL replays the group commits.
  auto reopened = SegDiffIndex::Open(path_, Options(&vfs));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_GE((*reopened)->num_observations(), acked);
  EXPECT_FALSE((*reopened)->db()->degraded());  // degradation is per-open
  auto scrub = (*reopened)->db()->Scrub();
  ASSERT_TRUE(scrub.ok());
  EXPECT_TRUE(scrub->clean());
  auto recovered = (*reopened)->SearchDrops(3600.0, -1.0);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_GE(recovered->size(), result_count);
}

// Degraded mode under concurrency: while one thread keeps (failing to)
// write against a full disk, parallel searchers must stream answers the
// whole time. Run under TSan to verify the health-state locking.
TEST_F(ChaosTest, DegradedModeServesConcurrentSearches) {
  FaultInjectionVfs vfs;
  auto opened = SegDiffIndex::Open(path_, Options(&vfs));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  SegDiffIndex* store = opened->get();
  ASSERT_EQ(IngestWithGroupCommits(store, series_, 0, 60), 60u);
  auto healthy = store->SearchDrops(3600.0, -1.0);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  const size_t result_count = healthy->size();

  vfs.SetDiskBudgetBytes(0);

  // Drive the store into degraded mode first: the full disk rejects the
  // next group commit with a no-space error.
  bool degraded_seen = false;
  for (size_t i = 60; i < kChunk && !degraded_seen; ++i) {
    Status status = store->AppendObservation(series_[i].t, series_[i].v);
    if (status.ok() && (i + 1) % kFlushEvery == 0) {
      status = store->FlushPending();
    }
    if (!status.ok()) {
      EXPECT_TRUE(status.IsNoSpace()) << status.ToString();
      degraded_seen = store->db()->degraded();
    }
  }
  ASSERT_TRUE(degraded_seen) << "the full disk never degraded the store";

  // Readers stream a fixed number of searches while the writer keeps
  // hammering the (fast-failing) append path.
  std::atomic<uint64_t> searches{0};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      for (int iter = 0; iter < 15; ++iter) {
        SearchStats stats;
        auto result = store->SearchDrops(3600.0, -1.0, {}, &stats);
        if (!result.ok() || result->size() < result_count) {
          ++violations;
          break;
        }
        ++searches;
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    if (!store->AppendObservation(series_[kChunk - 1].t + 1.0 + i, 0.0)
             .IsNoSpace()) {
      ++violations;
    }
  }
  EXPECT_TRUE(store->Checkpoint().IsNoSpace());
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(violations.load(), 0)
      << "a search failed or shrank, or a write got through, while the "
         "store was degraded";
  EXPECT_EQ(searches.load(), 30u);
}

// A corrupt feature page quarantines: searches that pass a stats
// out-param keep answering with an explicit partial flag, and repair
// rebuilds a scrub-clean store whose searches are whole again.
TEST_F(ChaosTest, PartialSearchOnQuarantinedPageAndRepair) {
  PageId victim = kInvalidPageId;
  {
    auto store = SegDiffIndex::Open(path_, Options(nullptr));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_EQ(IngestWithGroupCommits(store->get(), series_, 0,
                                     series_.size()),
              series_.size());
    auto table = (*store)->db()->GetTable("drop1");
    ASSERT_TRUE(table.ok());
    victim = (*table)->heap_meta().first_page;
  }
  ASSERT_NE(victim, kInvalidPageId) << "series produced no drop1 rows";
  FlipByte(path_, victim * kPageSize + 64);

  auto store = SegDiffIndex::Open(path_, Options(nullptr));
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  // With a stats out-param the search degrades instead of failing: the
  // damaged page is quarantined and the result flagged partial.
  SearchStats stats;
  auto partial = (*store)->SearchDrops(3600.0, -3.0, {}, &stats);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_TRUE(stats.partial);
  EXPECT_GT(stats.scan.pages_quarantined + stats.scan.rows_quarantined, 0u);
  const StoreHealth health = (*store)->db()->GetHealth();
  EXPECT_GE(health.quarantined_pages, 1u);

  // The stats-less form keeps the hard error: callers that cannot see
  // the partial flag must not silently get a subset.
  auto strict = (*store)->SearchDrops(3600.0, -3.0);
  ASSERT_FALSE(strict.ok());
  EXPECT_TRUE(strict.status().IsCorruption());

  // Repair salvages everything readable into a scrub-clean store.
  RepairReport report;
  ASSERT_TRUE((*store)->Repair(repaired_path_, &report).ok());
  EXPECT_GT(report.tables, 0u);
  EXPECT_GT(report.pages_skipped, 0u);

  SegDiffOptions repaired_options = Options(nullptr);
  repaired_options.create_if_missing = false;
  auto fixed = SegDiffIndex::Open(repaired_path_, repaired_options);
  ASSERT_TRUE(fixed.ok()) << fixed.status().ToString();
  auto scrub = (*fixed)->db()->Scrub();
  ASSERT_TRUE(scrub.ok());
  EXPECT_TRUE(scrub->clean());
  SearchStats fixed_stats;
  auto whole = (*fixed)->SearchDrops(3600.0, -3.0, {}, &fixed_stats);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_FALSE(fixed_stats.partial);
  // Every surviving answer is one the damaged store also produced.
  std::set<std::array<double, 4>> degraded_answers;
  for (const PairId& id : *partial) {
    degraded_answers.insert({id.t_d, id.t_c, id.t_b, id.t_a});
  }
  for (const PairId& id : *whole) {
    EXPECT_TRUE(degraded_answers.count({id.t_d, id.t_c, id.t_b, id.t_a}) >
                0u)
        << "repair invented a pair";
  }
}

}  // namespace
}  // namespace segdiff
