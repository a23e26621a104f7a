// Transect-level chaos (DESIGN.md §16).
//
// Three sweeps over the self-healing contract:
//
//   1. Crash-mid-rebalance: seeded cycles arm a countdown fault on one
//      of the rebalance's write paths (write, fsync, mkdir, rename),
//      kill the file system at the failure point, heal, and reopen.
//      Every cycle must end with exactly one authoritative layout — the
//      MIGRATION manifest resolved, no orphan shard directories, the
//      catalog either fully the old or fully the new sensors_per_shard
//      — and every previously acknowledged observation searchable with
//      the exact pre-fault answers.
//
//   2. Bitrot: flip bytes in a random sensor store. The stats search
//      must stay OK and degrade honestly (partial, with the per-sensor
//      failure ledger populated when the store refuses to open or
//      answer), the stats-less search must fail loudly, and RepairAll
//      must salvage every repairable store back to a scrub-clean sweep.
//
//   3. Eviction-error surfacing: an LRU eviction whose checkpoint fails
//      must not vanish — the sticky error reaches the next Acquire of
//      the victim and the next FlushAllPending, and the retry succeeds
//      with all acknowledged data intact (the WAL replays it).
//
// SEGDIFF_CHAOS_CYCLES shrinks the sweeps for smoke runs;
// SEGDIFF_FAULT_SEED explores a different schedule.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "test_paths.h"

#include "common/env.h"
#include "common/vfs.h"
#include "segdiff/transect_index.h"
#include "storage/fault_vfs.h"
#include "storage/pager.h"
#include "ts/generator.h"

namespace segdiff {
namespace {

constexpr int kSensors = 6;
constexpr int kInitialSps = 2;  // 3 shards
constexpr int kNewSps = 3;      // rebalance target: 2 shards
constexpr double kT = 3600.0;
constexpr double kV = -1.0;

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

class TransectChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = UniqueTestPath("transect_chaos", "");
    Cleanup();
    CadGeneratorOptions gen;
    gen.num_days = 1;
    gen.cad_events_per_day = 1.0;
    auto data = GenerateCadTransect(gen, kSensors);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    for (auto& sensor : *data) {
      all_series_.push_back(std::move(sensor.series));
    }
  }
  void TearDown() override { Cleanup(); }
  void Cleanup() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// WAL on with a zero group-commit window (FlushAllPending == acked
  /// durable), heap-only stores to keep hundreds of cycles fast.
  TransectOptions Options(Vfs* vfs) const {
    TransectOptions options;
    options.store.build_indexes = false;
    options.store.vfs = vfs;
    options.store.wal_group_commit_ms = 0;
    options.store.buffer_pool_pages = 64;
    options.sensors_per_shard = kInitialSps;
    return options;
  }

  /// Asserts the root holds exactly the live layout: the CATALOG plus
  /// the live catalog's shard directories — no MIGRATION manifest, no
  /// orphan generation, no stray temp files.
  void ExpectSingleLayout(TransectIndex* transect) {
    EXPECT_FALSE(Vfs::Default()->FileExists(
        dir_ + "/" + MigrationManifest::kFileName))
        << "migration intent survived recovery";
    const ShardCatalog& catalog = transect->catalog();
    std::unordered_set<std::string> live;
    const int sps = catalog.sensors_per_shard();
    const size_t num_shards =
        static_cast<size_t>((catalog.sensor_count() + sps - 1) / sps);
    for (size_t s = 0; s < num_shards; ++s) {
      const std::string path = catalog.ShardDirPath(dir_, s);
      live.insert(path.substr(dir_.size() + 1));
    }
    auto entries = Vfs::Default()->ListDir(dir_);
    ASSERT_TRUE(entries.ok()) << entries.status().ToString();
    for (const std::string& name : *entries) {
      EXPECT_TRUE(name == ShardCatalog::kManifestName ||
                  live.count(name) > 0)
          << "orphan entry after recovery: " << name;
    }
  }

  std::string dir_;
  std::vector<Series> all_series_;
  /// Pre-fault golden answers, carried across the crash boundary.
  std::vector<TransectHit> hits_expected_;
};

// Sweep 1: kill the file system at a seeded point inside Rebalance().
// The next Open must roll the migration forward or back — never leave
// two layouts, never lose an acknowledged observation.
TEST_F(TransectChaosTest, CrashMidRebalanceLeavesOneLayout) {
  const uint64_t seed = static_cast<uint64_t>(
      GetEnvInt64("SEGDIFF_FAULT_SEED", 20080325));
  const int64_t cycles = GetEnvInt64("SEGDIFF_CHAOS_CYCLES", 60);
  std::mt19937_64 rng(seed);

  uint64_t committed = 0, rolled_back = 0, survived_fault = 0;
  for (int64_t cycle = 0; cycle < cycles; ++cycle) {
    const int mode = static_cast<int>(rng() % 5);
    SCOPED_TRACE("cycle " + std::to_string(cycle) + " mode " +
                 std::to_string(mode) + " (seed " + std::to_string(seed) +
                 ")");
    Cleanup();
    FaultInjectionVfs vfs;

    {
      auto transect = TransectIndex::Open(dir_, kSensors, Options(&vfs));
      ASSERT_TRUE(transect.ok()) << transect.status().ToString();
      ASSERT_TRUE((*transect)->IngestAllSensors(all_series_).ok());
      // Everything below is acknowledged durable from here on.
      ASSERT_TRUE((*transect)->Checkpoint().ok());

      auto expected = (*transect)->SearchDrops(kT, kV);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();

      switch (mode) {
        case 0:
          vfs.FailAfterWrites(static_cast<int64_t>(rng() % 400));
          break;
        case 1:
          vfs.FailAfterSyncs(static_cast<int64_t>(rng() % 40));
          break;
        case 2:
          vfs.FailAfterMkdirs(static_cast<int64_t>(rng() % 2));
          break;
        case 3:
          vfs.FailAfterRenames(static_cast<int64_t>(rng() % 3));
          break;
        default:
          break;  // no fault: the rebalance must simply succeed
      }

      Status rebalanced = (*transect)->Rebalance(kNewSps);
      if (mode == 4) {
        ASSERT_TRUE(rebalanced.ok()) << rebalanced.ToString();
      }
      if (!rebalanced.ok()) {
        // The schedule fired mid-migration: power-cut right here. The
        // close below runs against a dead device and must stay graceful.
        (void)vfs.Crash();
      } else if (mode != 4) {
        ++survived_fault;  // countdown outlived the rebalance
      }

      // Re-check the answers only when the device is still alive.
      if (rebalanced.ok()) {
        TransectSearchStats stats;
        auto after = (*transect)->SearchDrops(kT, kV, {}, &stats);
        ASSERT_TRUE(after.ok()) << after.status().ToString();
        EXPECT_FALSE(stats.partial);
        ASSERT_EQ(after->size(), expected->size());
        for (size_t i = 0; i < after->size(); ++i) {
          EXPECT_TRUE((*after)[i] == (*expected)[i]) << "hit " << i;
        }
      }
      hits_expected_ = std::move(*expected);
    }  // close (possibly against the crashed device)

    vfs.Reset();  // the machine comes back

    auto reopened = TransectIndex::Open(dir_, kSensors, Options(&vfs));
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ExpectSingleLayout(reopened->get());

    const int sps = (*reopened)->catalog().sensors_per_shard();
    ASSERT_TRUE(sps == kInitialSps || sps == kNewSps) << sps;
    if (sps == kNewSps) {
      ++committed;
    } else {
      ++rolled_back;
    }

    // Every acknowledged observation answers, with no partiality.
    TransectSearchStats stats;
    auto hits = (*reopened)->SearchDrops(kT, kV, {}, &stats);
    ASSERT_TRUE(hits.ok()) << hits.status().ToString();
    EXPECT_FALSE(stats.partial);
    EXPECT_EQ(stats.sensors_failed, 0u);
    EXPECT_EQ(stats.sensors_skipped, 0u);
    ASSERT_EQ(hits->size(), hits_expected_.size());
    for (size_t i = 0; i < hits->size(); ++i) {
      EXPECT_TRUE((*hits)[i] == hits_expected_[i]) << "hit " << i;
    }

    // And the recovered transect scrubs clean end to end.
    auto health = (*reopened)->Verify();
    ASSERT_TRUE(health.ok()) << health.status().ToString();
    EXPECT_TRUE(health->clean())
        << health->sensors_corrupt << " corrupt / "
        << health->sensors_unavailable << " unavailable after recovery";
    EXPECT_EQ(health->sensors_scanned, kSensors);
  }

  // The sweep must have exercised both recovery directions.
  EXPECT_GT(committed, 0u);
  EXPECT_GT(rolled_back, 0u);
  std::printf(
      "transect chaos: %lld rebalance cycles — %llu committed, "
      "%llu rolled back, %llu survived an armed fault (seed %llu)\n",
      static_cast<long long>(cycles),
      static_cast<unsigned long long>(committed),
      static_cast<unsigned long long>(rolled_back),
      static_cast<unsigned long long>(survived_fault),
      static_cast<unsigned long long>(seed));
}

// Sweep 2: silent bitrot in one sensor store. Stats searches isolate
// the victim and say so; stats-less searches fail loudly; RepairAll
// salvages every store that still has a readable skeleton.
TEST_F(TransectChaosTest, BitrotIsIsolatedAndRepaired) {
  const uint64_t seed = static_cast<uint64_t>(
      GetEnvInt64("SEGDIFF_FAULT_SEED", 20080325));
  const int64_t cycles = GetEnvInt64("SEGDIFF_CHAOS_CYCLES", 40);
  std::mt19937_64 rng(seed ^ 0x62697472);  // decorrelate from sweep 1

  uint64_t damaged_cycles = 0;   // a search saw the damage
  uint64_t ledger_cycles = 0;    // ...as a per-sensor failure/skip
  uint64_t repaired_clean = 0;   // RepairAll restored a clean sweep
  uint64_t lossy_salvage = 0;    // scrub-clean but logically lossy
  uint64_t unsalvageable = 0;    // headers/catalog gone; repair refused
  for (int64_t cycle = 0; cycle < cycles; ++cycle) {
    SCOPED_TRACE("cycle " + std::to_string(cycle) + " (seed " +
                 std::to_string(seed) + ")");
    Cleanup();

    std::vector<TransectHit> expected;
    std::string victim_path;
    const int victim = static_cast<int>(rng() % kSensors);
    {
      auto transect =
          TransectIndex::Open(dir_, kSensors, Options(nullptr));
      ASSERT_TRUE(transect.ok()) << transect.status().ToString();
      ASSERT_TRUE((*transect)->IngestAllSensors(all_series_).ok());
      auto hits = (*transect)->SearchDrops(kT, kV);
      ASSERT_TRUE(hits.ok()) << hits.status().ToString();
      expected = std::move(*hits);
      victim_path = (*transect)->catalog().StorePath(dir_, victim);
    }  // clean close: WAL checkpointed, pages on disk

    // Flip a bit in two distinct data pages (never the header page —
    // chaos_test covers the headers-gone refusal; here the store must
    // keep a readable skeleton so repair has something to salvage).
    {
      auto file = Vfs::Default()->OpenFile(victim_path, /*create=*/false);
      ASSERT_TRUE(file.ok()) << file.status().ToString();
      auto size = (*file)->Size();
      ASSERT_TRUE(size.ok());
      const uint64_t pages = *size / kPageSize;
      ASSERT_GT(pages, 2u);
      uint64_t first = 1 + rng() % (pages - 1);
      if (cycle == 0) {
        // Cycle 0 always hits page 1, the catalog root: the victim's
        // store then fails to open, so even a short slice of the sweep
        // exercises the failure ledger. The draw above still happens,
        // keeping every later cycle's schedule unchanged.
        first = 1;
      }
      uint64_t second = 1 + rng() % (pages - 1);
      if (second == first) second = 1 + (first % (pages - 1));
      FlipByte(victim_path, first * kPageSize + 64 + rng() % 1024);
      FlipByte(victim_path, second * kPageSize + 64 + rng() % 1024);
    }

    auto reopened = TransectIndex::Open(dir_, kSensors, Options(nullptr));
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();

    // The stats search never aborts: the victim is isolated (skip,
    // failure, or page quarantine) and everyone else answers.
    TransectSearchStats stats;
    auto partial = (*reopened)->SearchDrops(kT, kV, {}, &stats);
    ASSERT_TRUE(partial.ok()) << partial.status().ToString();
    const bool saw_damage =
        stats.partial || stats.sensors_failed > 0 || stats.sensors_skipped > 0;
    if (saw_damage) {
      ++damaged_cycles;
      EXPECT_TRUE(stats.partial);
      // Non-victim sensors answer in full, byte for byte.
      std::vector<TransectHit> got, want;
      for (const TransectHit& h : *partial) {
        if (h.sensor != victim) got.push_back(h);
      }
      for (const TransectHit& h : expected) {
        if (h.sensor != victim) want.push_back(h);
      }
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(got[i] == want[i]) << "hit " << i;
      }
      if (stats.sensors_failed > 0 || stats.sensors_skipped > 0) {
        ++ledger_cycles;
        ASSERT_FALSE(stats.failures.empty());
        EXPECT_EQ(stats.failures.front().sensor, victim);
        // The strict stats-less contract: first damaged sensor aborts.
        auto strict = (*reopened)->SearchDrops(kT, kV);
        ASSERT_FALSE(strict.ok())
            << "stats-less search hid a damaged sensor";
        EXPECT_TRUE(strict.status().IsCorruption())
            << strict.status().ToString();
      }
    }

    // Repair salvages whatever still has a skeleton; a clean repair
    // sweep must leave a clean verify sweep and a full search.
    auto repair = (*reopened)->RepairAll();
    ASSERT_TRUE(repair.ok()) << repair.status().ToString();
    EXPECT_EQ(repair->sensors_checked, kSensors);
    if (repair->sensors_failed > 0) {
      ++unsalvageable;
      continue;
    }
    auto health = (*reopened)->Verify();
    ASSERT_TRUE(health.ok()) << health.status().ToString();
    EXPECT_TRUE(health->clean())
        << "repair left " << health->sensors_corrupt << " corrupt / "
        << health->sensors_unavailable << " unavailable sensor(s)";
    TransectSearchStats fixed_stats;
    auto fixed = (*reopened)->SearchDrops(kT, kV, {}, &fixed_stats);
    ASSERT_TRUE(fixed.ok()) << fixed.status().ToString();
    if (!fixed_stats.partial) {
      EXPECT_EQ(fixed_stats.sensors_failed, 0u);
      EXPECT_EQ(fixed_stats.sensors_skipped, 0u);
      if (repair->sensors_repaired > 0 || saw_damage) {
        ++repaired_clean;
      }
    } else {
      // Salvage can be logically lossy even when physically clean:
      // bitrot that ate a `segments`-table page leaves feature rows
      // whose segment id no longer resolves, and the search must say
      // so rather than invent an answer. The victim lands in the
      // failure ledger; everyone else still answers.
      EXPECT_GE(fixed_stats.sensors_failed + fixed_stats.sensors_skipped, 1u);
      ASSERT_FALSE(fixed_stats.failures.empty());
      EXPECT_EQ(fixed_stats.failures.front().sensor, victim);
      ++lossy_salvage;
    }
  }

  // The sweep must have seen real damage, recorded it in the failure
  // ledger at least once, and repaired its way back to clean.
  EXPECT_GT(damaged_cycles, 0u);
  EXPECT_GT(ledger_cycles, 0u);
  EXPECT_GT(repaired_clean, 0u);
  std::printf(
      "transect chaos: %lld bitrot cycles — %llu damaged, %llu in the "
      "failure ledger, %llu repaired clean, %llu lossy salvages, %llu "
      "unsalvageable (seed %llu)\n",
      static_cast<long long>(cycles),
      static_cast<unsigned long long>(damaged_cycles),
      static_cast<unsigned long long>(ledger_cycles),
      static_cast<unsigned long long>(repaired_clean),
      static_cast<unsigned long long>(lossy_salvage),
      static_cast<unsigned long long>(unsalvageable),
      static_cast<unsigned long long>(seed));
}

// Sweep 3: an eviction whose checkpoint fails must surface the error —
// once — to the next Acquire of the victim and to FlushAllPending, and
// the retry must come back with every acknowledged observation.
TEST_F(TransectChaosTest, EvictionCheckpointFailureSurfaces) {
  FaultInjectionVfs vfs;
  TransectOptions options = Options(&vfs);
  options.max_open_stores = 1;  // every cold touch evicts

  auto transect = TransectIndex::Open(dir_, kSensors, options);
  ASSERT_TRUE(transect.ok()) << transect.status().ToString();

  // Materialize sensor 1's store while the device is healthy, so the
  // armed fault below can only land on the eviction checkpoint.
  { auto handle = (*transect)->sensor(1); ASSERT_TRUE(handle.ok()); }

  const Series& series = all_series_[0];
  ASSERT_GE(series.size(), 80u);
  uint64_t acked = 0;
  for (size_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        (*transect)->AppendSensorObservation(0, series[i].t, series[i].v)
            .ok());
  }
  ASSERT_TRUE((*transect)->FlushAllPending().ok());
  acked = 40;

  // Sensor 0 is resident and behind on its checkpoint (the WAL holds
  // the acked rows). Touching sensor 1 evicts it into a dead device.
  vfs.FailAfterSyncs(0);
  { auto handle = (*transect)->sensor(1); (void)handle; }
  vfs.Reset();

  EXPECT_GE((*transect)->store_stats().eviction_failures, 1u);

  // The sticky error reaches the next Acquire of the victim, once.
  auto sticky = (*transect)->sensor(0);
  ASSERT_FALSE(sticky.ok()) << "eviction checkpoint failure vanished";
  EXPECT_NE(std::string(sticky.status().message())
                .find("eviction checkpoint failed"),
            std::string::npos)
      << sticky.status().ToString();

  // The retry reopens and replays the WAL: nothing acknowledged lost.
  auto retry = (*transect)->sensor(0);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_GE((*retry)->num_observations(), acked);
  retry->Reset();  // drop the pin before the next eviction round

  // Round two: the same failure must also surface via FlushAllPending.
  for (size_t i = 40; i < 80; ++i) {
    ASSERT_TRUE(
        (*transect)->AppendSensorObservation(0, series[i].t, series[i].v)
            .ok());
  }
  ASSERT_TRUE((*transect)->FlushAllPending().ok());
  acked = 80;

  vfs.FailAfterSyncs(0);
  { auto handle = (*transect)->sensor(1); (void)handle; }
  vfs.Reset();
  EXPECT_GE((*transect)->store_stats().eviction_failures, 2u);

  Status flushed = (*transect)->FlushAllPending();
  ASSERT_FALSE(flushed.ok()) << "FlushAllPending hid an eviction failure";
  EXPECT_NE(std::string(flushed.message()).find("eviction checkpoint failed"),
            std::string::npos)
      << flushed.ToString();

  // Delivered once: the victim acquires cleanly now, data intact.
  auto healed = (*transect)->sensor(0);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_GE((*healed)->num_observations(), acked);
}

}  // namespace
}  // namespace segdiff
