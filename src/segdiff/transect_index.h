// TransectIndex: SegDiff over a whole sensor deployment.
//
// The paper's system indexes 25 sensors along a canyon transect and
// reports that "SegDiff can return results for all sensors within 10
// seconds" (Section 6.3). This facade scales that idea from 25 sensors
// to 100k+: one SegDiff store per sensor, grouped into shard
// directories by a persistent ShardCatalog, opened lazily through a
// bounded StoreLru, and searched by parallel scatter-gather — each
// shard scans its sensors independently and the per-shard partial
// results merge deterministically into (sensor, pair) order, so the
// parallel fan-out returns byte-identical hits and (wall-clock fields
// aside) byte-identical SearchStats to the serial loop. See DESIGN.md
// §15.
//
// The transect is also self-healing (DESIGN.md §16): searches with a
// TransectSearchStats out-param isolate per-sensor failures instead of
// aborting the fan-out, Rebalance() migrates the deployment onto a new
// sensors_per_shard crash-safely behind a MIGRATION intent manifest,
// and Verify()/RepairAll() sweep every sensor for an aggregate health
// report and in-place salvage.

#ifndef SEGDIFF_SEGDIFF_TRANSECT_INDEX_H_
#define SEGDIFF_SEGDIFF_TRANSECT_INDEX_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "segdiff/segdiff_index.h"
#include "segdiff/shard_catalog.h"
#include "segdiff/store_lru.h"

namespace segdiff {

/// A search hit attributed to a sensor.
struct TransectHit {
  int sensor = 0;
  PairId pair;

  friend bool operator==(const TransectHit& a, const TransectHit& b) {
    return a.sensor == b.sensor && a.pair == b.pair;
  }
};

/// Aggregate sizes across all sensors.
struct TransectSizes {
  uint64_t feature_bytes = 0;
  uint64_t feature_rows = 0;
  uint64_t index_bytes = 0;
  uint64_t file_bytes = 0;
};

/// One sensor's failure inside a fault-isolated fan-out or sweep.
struct TransectSensorFailure {
  int sensor = 0;
  Status status;
};

/// Transect-level search stats: the folded per-store SearchStats plus
/// the fault-isolation ledger. Passing one of these to
/// SearchDrops/SearchJumps *opts into* per-sensor fault isolation: a
/// sensor whose store cannot open or whose search fails with an IO or
/// corruption error is skipped, counted here, and the result is flagged
/// `partial` — the other 99.99% of the transect still answers
/// (mirroring the per-store quarantine semantics). Without a stats
/// out-param there is nowhere to surface the hole, so the search keeps
/// the strict contract and fails loudly on the first damaged sensor.
/// Governance errors (deadline, cancellation, budget) are never
/// isolated — they abort the whole fan-out either way.
struct TransectSearchStats : SearchStats {
  /// Cap on `failures` records; the counters keep exact totals.
  static constexpr size_t kMaxFailureRecords = 16;

  uint64_t sensors_searched = 0;  ///< stores that answered
  uint64_t sensors_failed = 0;    ///< opened, but the search errored
  uint64_t sensors_skipped = 0;   ///< store could not open at all
  /// Stores that answered while in degraded (read-only) mode; their
  /// results are included — degraded stores still serve reads.
  uint64_t sensors_degraded = 0;
  /// First kMaxFailureRecords failures in sensor order (skips and
  /// search errors alike), for diagnostics without unbounded memory.
  std::vector<TransectSensorFailure> failures;
};

/// Knobs for the Verify/RepairAll sweeps.
struct TransectVerifyOptions {
  /// Walk every page checksum (and count quarantined/corrupt pages).
  /// Off: only open each store and collect its health flags.
  bool scrub = true;
  /// Soft ceiling on sweep read throughput, so a background scrub does
  /// not starve serving searches. 0 reads SEGDIFF_SCRUB_RATE_BYTES_PER_SEC
  /// from the environment; 0 there too means unlimited.
  uint64_t rate_limit_bytes_per_sec = 0;
};

/// One unhealthy sensor found by a sweep.
struct TransectSensorIssue {
  int sensor = 0;
  bool corrupt = false;    ///< damage (checksum/corruption class)
  bool transient = false;  ///< IO kept the check from finishing
  std::string message;
};

/// Aggregate health of a whole transect (Verify).
struct TransectHealthReport {
  /// Cap on `issues` records; the counters keep exact totals.
  static constexpr size_t kMaxIssueRecords = 32;

  int sensors_total = 0;
  int sensors_scanned = 0;      ///< opened and checked end to end
  int sensors_corrupt = 0;      ///< damaged (open failure or bad pages)
  int sensors_degraded = 0;     ///< serving read-only after a write error
  int sensors_unavailable = 0;  ///< transient IO; retry the sweep
  uint64_t pages_checked = 0;
  uint64_t pages_corrupt = 0;
  uint64_t pages_unverifiable = 0;  ///< legacy v1 pages, no checksums
  uint64_t quarantined_pages = 0;   ///< poisoned by earlier reads
  uint64_t bytes_scanned = 0;
  std::vector<TransectSensorIssue> issues;

  /// Healthy enough to trust search results end to end.
  bool clean() const {
    return sensors_corrupt == 0 && sensors_unavailable == 0;
  }
};

/// Aggregate result of a RepairAll sweep.
struct TransectRepairReport {
  int sensors_checked = 0;
  int sensors_repaired = 0;  ///< salvaged and swapped in place
  int sensors_failed = 0;    ///< repair itself failed; store left as-is
  uint64_t bytes_scanned = 0;
  RepairReport totals;       ///< summed over all repaired sensors
  std::vector<TransectSensorIssue> issues;  ///< capped like Verify's
};

/// Deployment-level configuration on top of the per-store options.
struct TransectOptions {
  /// Options applied to every per-sensor store. For large transects,
  /// size store.buffer_pool_pages down (each open store owns its own
  /// pool) — the 4096-page per-store default is tuned for a handful of
  /// stores, not 100k.
  SegDiffOptions store;
  /// Sensors per shard directory (consistent placement). <= 0 reads
  /// SEGDIFF_SENSORS_PER_SHARD, default 256. Fixed at catalog creation;
  /// reopens adopt the persisted value.
  int sensors_per_shard = 0;
  /// Max per-sensor stores open at once; the StoreLru evicts
  /// (checkpoint + close) the coldest unpinned store beyond this. 0
  /// reads SEGDIFF_MAX_OPEN_STORES, default unbounded.
  size_t max_open_stores = 0;
};

class TransectIndex {
 public:
  /// Opens a transect rooted at `directory` (created if missing).
  /// First open writes the shard catalog and creates the shard
  /// directories; reopens load the catalog (Corruption if it fails
  /// verification) and require `sensor_count` to match it (<= 0 adopts
  /// the persisted count). A pre-sharding flat directory (sensor<k>.db
  /// directly under the root) is adopted in place. Stores themselves
  /// open lazily, on first touch.
  static Result<std::unique_ptr<TransectIndex>> Open(
      const std::string& directory, int sensor_count,
      const TransectOptions& options);

  /// Back-compat convenience: per-store options only, deployment knobs
  /// from the environment / defaults.
  static Result<std::unique_ptr<TransectIndex>> Open(
      const std::string& directory, int sensor_count,
      const SegDiffOptions& options);

  ~TransectIndex();

  /// Ingests a series for one sensor (0-based).
  Status IngestSensorSeries(int sensor, const Series& series);

  /// Appends one observation to one sensor's streaming pipeline
  /// (0-based); see SegDiffIndex::AppendObservation.
  Status AppendSensorObservation(int sensor, double t, double v);

  /// Flushes the open trailing segment of every sensor appended to
  /// since its last flush (tracked across LRU evictions — an evicted
  /// store reopens and resumes exactly where it left off). Flushes run
  /// in parallel on the shared pool; the first error wins.
  Status FlushAllPending();

  /// Ingests one series per sensor (`all_series.size()` must equal
  /// sensor_count()). With `num_threads` >= 2 the per-sensor ingests run
  /// concurrently on a worker pool — the stores are independent, so the
  /// result is identical to the serial loop; only wall-clock changes.
  Status IngestAllSensors(const std::vector<Series>& all_series,
                          size_t num_threads = 0);

  /// Searches every sensor; hits are ordered by (sensor, pair).
  ///
  /// SearchOptions::num_threads here is the scatter-gather fan-out
  /// width: shards are searched concurrently on the shared pool (each
  /// store's own search runs single-threaded), clamped to the shard
  /// count and to max_open_stores so a worker never blocks on a pin it
  /// cannot get. A relative deadline_ms converts to one absolute
  /// deadline shared by the whole fan-out, and cancel/deadline are
  /// checked at every sensor boundary in every shard, so a governed
  /// search stops promptly everywhere. Hits and the deterministic
  /// stats fields are byte-identical to the serial (num_threads
  /// <= 1) path; only seconds/admission_wait_ms vary.
  ///
  /// With `stats`, per-sensor failures are isolated instead of fatal —
  /// see TransectSearchStats. Without, the first failure aborts.
  Result<std::vector<TransectHit>> SearchDrops(
      double T, double V, const SearchOptions& options = {},
      TransectSearchStats* stats = nullptr);
  Result<std::vector<TransectHit>> SearchJumps(
      double T, double V, const SearchOptions& options = {},
      TransectSearchStats* stats = nullptr);

  /// Migrates the deployment onto `new_sensors_per_shard` crash-safely,
  /// while searches keep serving (ingest pauses with ResourceExhausted
  /// for the duration). The sequence — intent MIGRATION manifest, new
  /// generation-tagged shard dirs, per-sensor CompactInto copies, fsync,
  /// atomic CATALOG swap, old-layout garbage collection, manifest
  /// removal — is resumable: a crash at any write/mkdir/fsync point is
  /// rolled forward or back by the next Open, leaving exactly one
  /// authoritative layout. Same value as the current layout is a no-op.
  Status Rebalance(int new_sensors_per_shard);

  /// Walks every sensor (under the LRU cap, optionally rate-limited)
  /// and aggregates store health: scrub results, degraded flags,
  /// quarantined pages. Never modifies anything. Per-sensor problems
  /// land in the report, not in the return status — only infrastructure
  /// failures (e.g. the catalog itself) fail the sweep.
  Result<TransectHealthReport> Verify(
      const TransectVerifyOptions& options = {});

  /// Verify + in-place salvage: every damaged sensor store is repaired
  /// into a fresh file (Database::Repair salvage semantics: corrupt
  /// pages/segments skipped and accounted) which atomically replaces
  /// the original. Healthy sensors are untouched.
  Result<TransectRepairReport> RepairAll(
      const TransectVerifyOptions& options = {});

  /// Per-sensor access (e.g. for drill-down after a transect-wide hit).
  /// The returned handle pins the store open; hold it only as long as
  /// needed so the LRU can recycle the slot.
  Result<StoreLru::Handle> sensor(int index);

  int sensor_count() const { return catalog_.sensor_count(); }
  const ShardCatalog& catalog() const { return catalog_; }

  /// Store-cache behaviour (resident/peak counts, opens, evictions).
  StoreLruStats store_stats() const { return stores_->stats(); }

  /// Checkpoints every currently-open store, in parallel on the shared
  /// pool (evicted stores were checkpointed on close; untouched stores
  /// have nothing to persist).
  Status Checkpoint();
  Status DropCaches();

  /// Aggregate sizes over all sensors. Opens every store (through the
  /// LRU, so peak residency stays bounded) — O(sensor_count) IO.
  Result<TransectSizes> GetSizes();

 private:
  TransectIndex() = default;

  /// Scatter-gather core shared by SearchDrops/SearchJumps. Each shard
  /// produces an independent partial (hits in (sensor, pair) order plus
  /// folded stats); partials merge in shard index order, so the fold is
  /// identical no matter which worker finished first.
  template <typename SearchFn>
  Result<std::vector<TransectHit>> SearchAll(const SearchOptions& options,
                                             const SearchFn& search,
                                             TransectSearchStats* stats);

  /// Open-time crash recovery: if a MIGRATION manifest exists, finish
  /// (catalog already swapped: garbage-collect the source layout) or
  /// undo (catalog still the source: delete the half-built target) the
  /// interrupted rebalance, then remove the manifest. A corrupt
  /// manifest falls back to pattern-based orphan-directory GC — the
  /// CATALOG stays the single source of truth throughout.
  static Status RecoverMigration(Vfs* vfs, const std::string& directory,
                                 const ShardCatalog& live);

  /// Deletes every store file (and WAL sidecar) of `doomed`'s layout
  /// and removes its now-empty shard directories. Paths shared with
  /// `keep` are left alone; missing files are fine (idempotent across
  /// repeated recovery passes).
  static Status GcLayout(Vfs* vfs, const std::string& directory,
                         const ShardCatalog& doomed,
                         const ShardCatalog& keep);

  /// Backstop GC: removes shard-shaped directories under the root that
  /// the live catalog does not reference, plus stale manifest temp
  /// files. Used when the migration manifest itself is unreadable.
  static Status GcOrphanDirs(Vfs* vfs, const std::string& directory,
                             const ShardCatalog& live);

  /// One sensor's slice of a RepairAll sweep: scrub, and if damaged,
  /// salvage into a fresh store file that atomically replaces the
  /// original (the store is evicted from the LRU around the swap).
  Status RepairSensor(int sensor, TransectRepairReport* report);

  /// The Vfs all transect-level IO goes through.
  Vfs* vfs() const {
    return store_options_.vfs != nullptr ? store_options_.vfs
                                         : Vfs::Default();
  }

  /// Fan-out width for maintenance sweeps (flush, checkpoint, sizes):
  /// enough workers to overlap store IO, bounded by the cache capacity
  /// and the number of items.
  size_t MaintenanceThreads(size_t items) const;

  std::string directory_;
  SegDiffOptions store_options_;
  ShardCatalog catalog_;
  /// Declared after the fields the open-factory captures: destroyed
  /// first, while directory_/options_/catalog_ are still alive.
  std::unique_ptr<StoreLru> stores_;

  /// Guards the (catalog_, stores_) pair as a unit. Shared: everything
  /// that routes through the layout (search, ingest, sweeps). Exclusive:
  /// the brief windows that replace it — the rebalance commit+GC and a
  /// repair's store-file swap. Holders of a shared lock may hold
  /// StoreLru Handles; nothing may hold a Handle across an exclusive
  /// acquisition (the swap destroys the cache).
  mutable std::shared_mutex layout_mu_;
  /// One rebalance at a time; ingest fails fast while it runs.
  std::atomic<bool> rebalancing_{false};
  /// Serializes Verify/RepairAll/Rebalance against each other.
  std::mutex maintenance_mu_;

  /// Sensors with appends since their last flush; survives LRU
  /// eviction of the store (close persists segmenter state, not the
  /// FlushPending contract).
  std::mutex dirty_mu_;
  std::unordered_set<int> dirty_;
};

}  // namespace segdiff

#endif  // SEGDIFF_SEGDIFF_TRANSECT_INDEX_H_
