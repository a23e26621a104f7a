#include "segdiff/transect_index.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>

#include "common/thread_pool.h"
#include "storage/db.h"
#include "storage/pager.h"
#include "storage/wal.h"

namespace segdiff {
namespace {

/// Width of the maintenance sweeps (flush, checkpoint, sizes, rebalance
/// copies): stores sleep on IO, so overlap helps even on one core.
size_t MaintenanceWidth() {
  return std::clamp<size_t>(std::thread::hardware_concurrency(), 2, 8);
}

/// Folds one search's stats into a running total. Only deterministic
/// fields matter for the serial/parallel differential: the integer and
/// bool fields are associative sums/ORs, so folding per-shard partials
/// in shard order gives the same totals as the flat serial loop. The
/// wall-clock doubles (seconds, admission_wait_ms) are additive too but
/// naturally vary run to run.
void FoldStats(const SearchStats& one, SearchStats* total) {
  total->scan.Add(one.scan);
  total->queries_issued += one.queries_issued;
  total->seconds += one.seconds;
  total->snapshot_observations += one.snapshot_observations;
  total->truncated = total->truncated || one.truncated;
  total->partial = total->partial || one.partial;
  total->result_bytes_peak =
      std::max(total->result_bytes_peak, one.result_bytes_peak);
  total->admission_wait_ms += one.admission_wait_ms;
}

/// The transect-level fold: base stats plus the fault-isolation ledger.
/// Failure records merge in shard order and stay capped, so the
/// counters are exact and the records deterministic.
void FoldTransectStats(const TransectSearchStats& one,
                       TransectSearchStats* total) {
  FoldStats(one, total);
  total->sensors_searched += one.sensors_searched;
  total->sensors_failed += one.sensors_failed;
  total->sensors_skipped += one.sensors_skipped;
  total->sensors_degraded += one.sensors_degraded;
  for (const TransectSensorFailure& failure : one.failures) {
    if (total->failures.size() < TransectSearchStats::kMaxFailureRecords) {
      total->failures.push_back(failure);
    }
  }
}

/// Which per-sensor failures a stats-carrying search may isolate: the
/// store is damaged or its IO failed. Governance and programming errors
/// (deadline, cancellation, budget, bad arguments) abort the fan-out —
/// skipping sensors would silently misreport a governed search as a
/// partial one.
bool IsolableFailure(const Status& status) {
  return status.IsCorruption() || status.IsIOError() || status.IsNotFound();
}

void RecordFailure(TransectSearchStats* stats, int sensor,
                   const Status& status, bool skipped) {
  if (skipped) {
    ++stats->sensors_skipped;
  } else {
    ++stats->sensors_failed;
  }
  stats->partial = true;
  if (stats->failures.size() < TransectSearchStats::kMaxFailureRecords) {
    stats->failures.push_back(TransectSensorFailure{sensor, status});
  }
}

Status IgnoreNotFound(Status status) {
  if (status.IsNotFound()) {
    return Status::OK();
  }
  return status;
}

/// Deletes one sensor store file and its WAL sidecar; absent files are
/// fine (GC must be idempotent across repeated recovery passes).
Status RemoveStoreFiles(Vfs* vfs, const std::string& path) {
  SEGDIFF_RETURN_IF_ERROR(IgnoreNotFound(vfs->RemoveFile(path)));
  return IgnoreNotFound(vfs->RemoveFile(Wal::PathFor(path)));
}

/// Does `name` look like a shard directory this module could have
/// created — "shard<5 digits>" (Place's default) or
/// "g<digits>-shard<5 digits>" (a rebalance generation)? The orphan GC
/// only ever deletes names matching this shape, so user files sitting
/// next to the CATALOG are never at risk.
bool LooksLikeShardDir(const std::string& name) {
  size_t digits = std::string::npos;
  if (name.compare(0, 5, "shard") == 0) {
    digits = 5;
  } else if (!name.empty() && name[0] == 'g') {
    size_t i = 1;
    while (i < name.size() &&
           std::isdigit(static_cast<unsigned char>(name[i])) != 0) {
      ++i;
    }
    if (i > 1 && name.compare(i, 6, "-shard") == 0) {
      digits = i + 6;
    }
  }
  if (digits == std::string::npos || name.size() != digits + 5) {
    return false;
  }
  for (size_t i = digits; i < name.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(name[i])) == 0) {
      return false;
    }
  }
  return true;
}

/// Sleeps just long enough that `bytes` read since `start` stay under
/// `rate` bytes/sec. Coarse (per-sensor granularity) by design: the
/// point is to keep a background sweep from saturating the disk, not to
/// shape traffic precisely.
void ThrottleSweep(uint64_t rate, uint64_t bytes,
                   std::chrono::steady_clock::time_point start) {
  if (rate == 0 || bytes == 0) {
    return;
  }
  const double budget_s =
      static_cast<double>(bytes) / static_cast<double>(rate);
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (budget_s > elapsed_s) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(budget_s - elapsed_s));
  }
}

}  // namespace

Result<std::unique_ptr<TransectIndex>> TransectIndex::Open(
    const std::string& directory, int sensor_count,
    const TransectOptions& options) {
  Vfs* vfs = options.store.vfs != nullptr ? options.store.vfs : Vfs::Default();
  SEGDIFF_RETURN_IF_ERROR(vfs->MakeDir(directory));

  std::unique_ptr<TransectIndex> transect(new TransectIndex());
  transect->directory_ = directory;
  transect->store_options_ = options.store;

  Result<ShardCatalog> loaded = ShardCatalog::Load(vfs, directory);
  if (loaded.ok()) {
    if (sensor_count > 0 && sensor_count != loaded->sensor_count()) {
      return Status::InvalidArgument(
          "transect " + directory + " holds " +
          std::to_string(loaded->sensor_count()) + " sensors, not " +
          std::to_string(sensor_count));
    }
    transect->catalog_ = std::move(loaded).value();
    // Finish (or undo) a rebalance the previous process did not
    // survive; afterwards exactly one layout exists on disk.
    SEGDIFF_RETURN_IF_ERROR(
        RecoverMigration(vfs, directory, transect->catalog_));
  } else if (loaded.status().IsNotFound()) {
    if (vfs->FileExists(directory + "/" + MigrationManifest::kFileName)) {
      // The intent record survived but the catalog did not — there is
      // no authoritative layout to recover toward, so refuse loudly
      // rather than guess (CATALOG is written before the first store
      // and swapped atomically, so this never arises from a crash).
      return Status::Corruption(
          "transect " + directory +
          ": MIGRATION manifest present but no CATALOG");
    }
    if (sensor_count <= 0) {
      return Status::InvalidArgument("sensor_count must be positive");
    }
    transect->catalog_ = ShardCatalog::Place(
        sensor_count,
        options.sensors_per_shard > 0 ? options.sensors_per_shard : 256);
    for (size_t i = 0; i < transect->catalog_.shard_count(); ++i) {
      SEGDIFF_RETURN_IF_ERROR(
          vfs->MakeDir(transect->catalog_.ShardDirPath(directory, i)));
    }
    SEGDIFF_RETURN_IF_ERROR(transect->catalog_.Save(vfs, directory));
  } else {
    return loaded.status();  // Corruption stays loud
  }

  TransectIndex* raw = transect.get();
  transect->stores_ = std::make_unique<StoreLru>(
      options.max_open_stores,
      [raw](int s) -> Result<std::unique_ptr<SegDiffIndex>> {
        return SegDiffIndex::Open(
            raw->catalog_.StorePath(raw->directory_, s), raw->store_options_);
      });
  return transect;
}

TransectIndex::~TransectIndex() = default;

Status TransectIndex::RecoverMigration(Vfs* vfs, const std::string& directory,
                                       const ShardCatalog& live) {
  // A crash (or dead device) between an atomic save's write and rename
  // leaves a stale `.tmp` behind that nothing will ever read — sweep
  // both candidates up front, whatever the manifest says.
  SEGDIFF_RETURN_IF_ERROR(IgnoreNotFound(vfs->RemoveFile(
      directory + "/" + std::string(ShardCatalog::kManifestName) + ".tmp")));
  SEGDIFF_RETURN_IF_ERROR(IgnoreNotFound(vfs->RemoveFile(
      directory + "/" + std::string(MigrationManifest::kFileName) + ".tmp")));
  Result<MigrationManifest> manifest = MigrationManifest::Load(vfs, directory);
  if (manifest.status().IsNotFound()) {
    return Status::OK();  // no rebalance was in flight
  }
  if (!manifest.ok()) {
    if (manifest.status().IsCorruption()) {
      // The intent record is torn (crash mid-save of the manifest
      // itself, before any target byte existed). The CATALOG is still
      // the single source of truth: drop the unreadable intent and
      // sweep any shard-shaped directories it might have referenced.
      SEGDIFF_RETURN_IF_ERROR(MigrationManifest::Remove(vfs, directory));
      return GcOrphanDirs(vfs, directory, live);
    }
    return manifest.status();
  }
  const std::string live_raw = live.Encode();
  if (live_raw == manifest->target.Encode()) {
    // The atomic catalog swap committed before the crash: roll forward
    // by finishing the source layout's garbage collection.
    SEGDIFF_RETURN_IF_ERROR(
        GcLayout(vfs, directory, manifest->source, manifest->target));
  } else if (live_raw == manifest->source.Encode()) {
    // The swap never happened: roll back by deleting the half-built
    // target layout.
    SEGDIFF_RETURN_IF_ERROR(
        GcLayout(vfs, directory, manifest->target, manifest->source));
  } else {
    // Three distinct layouts cannot exist: the manifest is removed
    // before a new rebalance starts and the catalog only ever swaps
    // between its two embedded states.
    return Status::Corruption(
        "migration manifest in " + directory +
        " matches neither the live catalog's source nor target layout");
  }
  return MigrationManifest::Remove(vfs, directory);
}

Status TransectIndex::GcLayout(Vfs* vfs, const std::string& directory,
                               const ShardCatalog& doomed,
                               const ShardCatalog& keep) {
  std::unordered_set<std::string> keep_paths;
  for (int s = 0; s < keep.sensor_count(); ++s) {
    keep_paths.insert(keep.StorePath(directory, s));
  }
  for (int s = 0; s < doomed.sensor_count(); ++s) {
    const std::string path = doomed.StorePath(directory, s);
    if (keep_paths.count(path) != 0) {
      continue;  // never delete a store the surviving layout uses
    }
    SEGDIFF_RETURN_IF_ERROR(RemoveStoreFiles(vfs, path));
  }
  std::unordered_set<std::string> keep_dirs;
  for (size_t i = 0; i < keep.shard_count(); ++i) {
    keep_dirs.insert(keep.shard(i).dir);
  }
  std::unordered_set<std::string> visited;
  for (size_t i = 0; i < doomed.shard_count(); ++i) {
    const std::string& dir = doomed.shard(i).dir;
    if (keep_dirs.count(dir) != 0 || !visited.insert(dir).second) {
      continue;
    }
    const std::string full = directory + "/" + dir;
    // A crash can leave strays (repair temps, half-copied stores) in a
    // doomed directory; everything in it belongs to the doomed layout.
    Result<std::vector<std::string>> entries = vfs->ListDir(full);
    if (entries.status().IsNotFound()) {
      continue;  // an earlier recovery pass already removed it
    }
    SEGDIFF_RETURN_IF_ERROR(entries.status());
    for (const std::string& name : *entries) {
      SEGDIFF_RETURN_IF_ERROR(
          IgnoreNotFound(vfs->RemoveFile(full + "/" + name)));
    }
    SEGDIFF_RETURN_IF_ERROR(IgnoreNotFound(vfs->RemoveDir(full)));
  }
  return vfs->SyncDir(directory + "/" + ShardCatalog::kManifestName);
}

Status TransectIndex::GcOrphanDirs(Vfs* vfs, const std::string& directory,
                                   const ShardCatalog& live) {
  std::unordered_set<std::string> live_dirs;
  for (size_t i = 0; i < live.shard_count(); ++i) {
    live_dirs.insert(live.shard(i).dir);
  }
  SEGDIFF_ASSIGN_OR_RETURN(const std::vector<std::string> entries,
                           vfs->ListDir(directory));
  for (const std::string& name : entries) {
    if (name == std::string(ShardCatalog::kManifestName) + ".tmp" ||
        name == std::string(MigrationManifest::kFileName) + ".tmp") {
      SEGDIFF_RETURN_IF_ERROR(
          IgnoreNotFound(vfs->RemoveFile(directory + "/" + name)));
      continue;
    }
    if (!LooksLikeShardDir(name) || live_dirs.count(name) != 0) {
      continue;
    }
    const std::string full = directory + "/" + name;
    Result<std::vector<std::string>> children = vfs->ListDir(full);
    if (!children.ok()) {
      continue;  // a plain file that merely looks like a shard dir
    }
    for (const std::string& child : *children) {
      SEGDIFF_RETURN_IF_ERROR(
          IgnoreNotFound(vfs->RemoveFile(full + "/" + child)));
    }
    SEGDIFF_RETURN_IF_ERROR(IgnoreNotFound(vfs->RemoveDir(full)));
  }
  return vfs->SyncDir(directory + "/" + ShardCatalog::kManifestName);
}

Status TransectIndex::IngestSensorSeries(int sensor, const Series& series) {
  std::shared_lock<std::shared_mutex> layout_lock(layout_mu_);
  if (rebalancing_.load(std::memory_order_acquire)) {
    return Status::ResourceExhausted(
        "transect is rebalancing; ingest is paused — retry shortly");
  }
  if (sensor < 0 || sensor >= catalog_.sensor_count()) {
    return Status::InvalidArgument("sensor index out of range");
  }
  SEGDIFF_ASSIGN_OR_RETURN(StoreLru::Handle store, stores_->Acquire(sensor));
  SEGDIFF_RETURN_IF_ERROR(store->IngestSeries(series));
  // IngestSeries finalizes its own trailing segment, so the sensor has
  // nothing pending anymore.
  std::lock_guard<std::mutex> lock(dirty_mu_);
  dirty_.erase(sensor);
  return Status::OK();
}

Status TransectIndex::AppendSensorObservation(int sensor, double t,
                                              double v) {
  std::shared_lock<std::shared_mutex> layout_lock(layout_mu_);
  if (rebalancing_.load(std::memory_order_acquire)) {
    return Status::ResourceExhausted(
        "transect is rebalancing; ingest is paused — retry shortly");
  }
  if (sensor < 0 || sensor >= catalog_.sensor_count()) {
    return Status::InvalidArgument("sensor index out of range");
  }
  SEGDIFF_ASSIGN_OR_RETURN(StoreLru::Handle store, stores_->Acquire(sensor));
  SEGDIFF_RETURN_IF_ERROR(store->AppendObservation(t, v));
  std::lock_guard<std::mutex> lock(dirty_mu_);
  dirty_.insert(sensor);
  return Status::OK();
}

Status TransectIndex::FlushAllPending() {
  std::shared_lock<std::shared_mutex> layout_lock(layout_mu_);
  // Surface sticky eviction-checkpoint failures here too: re-mark the
  // victims dirty so this sweep retries them through a fresh open (the
  // WAL still holds their acknowledged data), and report the first
  // failure once even when the retry succeeds — the caller asked for
  // "everything durable" and deserves to know a checkpoint was lost.
  Status eviction_error;
  for (auto& [sensor, status] : stores_->TakeEvictionErrors()) {
    {
      std::lock_guard<std::mutex> lock(dirty_mu_);
      dirty_.insert(sensor);
    }
    if (eviction_error.ok()) {
      eviction_error = std::move(status);
    }
  }
  std::vector<int> dirty;
  {
    std::lock_guard<std::mutex> lock(dirty_mu_);
    dirty.assign(dirty_.begin(), dirty_.end());
  }
  std::sort(dirty.begin(), dirty.end());
  auto flush_one = [&](size_t i) -> Status {
    const int sensor = dirty[i];
    SEGDIFF_ASSIGN_OR_RETURN(StoreLru::Handle store,
                             stores_->Acquire(sensor));
    SEGDIFF_RETURN_IF_ERROR(store->FlushPending());
    std::lock_guard<std::mutex> lock(dirty_mu_);
    dirty_.erase(sensor);
    return Status::OK();
  };
  // ParallelFor keeps the first error and skips remaining sensors;
  // still-dirty sensors stay tracked for the retry.
  SEGDIFF_RETURN_IF_ERROR(ParallelFor(
      dirty.size(), FanOutWidth(MaintenanceWidth(), dirty.size()), nullptr,
      flush_one));
  return eviction_error;
}

Status TransectIndex::IngestAllSensors(const std::vector<Series>& all_series,
                                       size_t num_threads) {
  if (all_series.size() != static_cast<size_t>(sensor_count())) {
    return Status::InvalidArgument(
        "IngestAllSensors needs exactly one series per sensor");
  }
  // Each task touches exactly one store, so per-sensor pipelines never
  // share mutable state; the fan-out only parallelizes across sensors.
  return ParallelFor(all_series.size(),
                     FanOutWidth(num_threads, all_series.size()), nullptr,
                     [&](size_t s) -> Status {
                       return IngestSensorSeries(static_cast<int>(s),
                                                 all_series[s]);
                     });
}

template <typename SearchFn>
Result<std::vector<TransectHit>> TransectIndex::SearchAll(
    const SearchOptions& options, const SearchFn& search,
    TransectSearchStats* stats) {
  std::shared_lock<std::shared_mutex> layout_lock(layout_mu_);
  // One absolute deadline for the whole transect: N sensors share it.
  SearchOptions per_sensor = options;
  // At transect level num_threads is the scatter-gather width; the
  // per-store searches run single-threaded so the fan-out, not nested
  // fan-outs, uses the machine.
  per_sensor.num_threads = 0;
  QueryContext ctx;
  ctx.cancel = per_sensor.cancel;
  ctx.deadline = per_sensor.deadline;

  const size_t shard_count = catalog_.shard_count();

  // A stats out-param opts into fault isolation: damaged sensors are
  // skipped and accounted instead of failing the whole fan-out.
  const bool isolate = stats != nullptr;

  // Scatter: each shard builds an independent partial — its hits
  // already in (sensor, pair) order because sensors are scanned
  // ascending and each store returns sorted pairs.
  struct ShardPartial {
    std::vector<TransectHit> hits;
    TransectSearchStats stats;
  };
  const size_t width = FanOutWidth(options.num_threads, shard_count);
  std::vector<ShardPartial> partials;
  Status status = ParallelMap(
      shard_count, width, &ctx, &partials,
      [&](size_t shard, ShardPartial* out) -> Status {
        const ShardInfo& info = catalog_.shard(shard);
        const int last = info.first_sensor + info.sensor_count;
        for (int s = info.first_sensor; s < last; ++s) {
          // Sensor-boundary check point, in addition to the
          // page-granular checks inside each store's search.
          SEGDIFF_RETURN_IF_ERROR(ctx.Check());
          Result<StoreLru::Handle> acquired = stores_->Acquire(s);
          if (!acquired.ok()) {
            if (!isolate || !IsolableFailure(acquired.status())) {
              return acquired.status();
            }
            RecordFailure(&out->stats, s, acquired.status(),
                          /*skipped=*/true);
            continue;
          }
          StoreLru::Handle store = std::move(acquired).value();
          SearchStats one;
          Result<std::vector<PairId>> pairs =
              search(store.get(), per_sensor, &one);
          if (!pairs.ok()) {
            if (!isolate || !IsolableFailure(pairs.status())) {
              return pairs.status();
            }
            RecordFailure(&out->stats, s, pairs.status(),
                          /*skipped=*/false);
            continue;
          }
          for (const PairId& pair : *pairs) {
            out->hits.push_back(TransectHit{s, pair});
          }
          FoldStats(one, &out->stats);
          ++out->stats.sensors_searched;
          if (isolate && store->db()->GetHealth().degraded) {
            // Degraded stores still serve reads; their hits are in the
            // result, the flag just tells the caller writes are failing.
            ++out->stats.sensors_degraded;
          }
        }
        return Status::OK();
      });
  if (!status.ok()) {
    return status;
  }

  // Gather: fold partials in shard index order — the merge is
  // deterministic no matter which worker finished first, and equals the
  // serial loop's output byte for byte.
  std::vector<TransectHit> hits;
  TransectSearchStats total;
  for (ShardPartial& partial : partials) {
    hits.insert(hits.end(), partial.hits.begin(), partial.hits.end());
    FoldTransectStats(partial.stats, &total);
  }
  total.pairs_returned = hits.size();
  total.fan_out = std::max<size_t>(width, 1);
  if (stats != nullptr) {
    *stats = std::move(total);
  }
  return hits;
}

Result<std::vector<TransectHit>> TransectIndex::SearchDrops(
    double T, double V, const SearchOptions& options,
    TransectSearchStats* stats) {
  return SearchAll(
      options,
      [&](SegDiffIndex* store, const SearchOptions& per_sensor,
          SearchStats* one) {
        return store->SearchDrops(T, V, per_sensor, one);
      },
      stats);
}

Result<std::vector<TransectHit>> TransectIndex::SearchJumps(
    double T, double V, const SearchOptions& options,
    TransectSearchStats* stats) {
  return SearchAll(
      options,
      [&](SegDiffIndex* store, const SearchOptions& per_sensor,
          SearchStats* one) {
        return store->SearchJumps(T, V, per_sensor, one);
      },
      stats);
}

Status TransectIndex::Rebalance(int new_sensors_per_shard) {
  if (new_sensors_per_shard <= 0) {
    return Status::InvalidArgument("sensors_per_shard must be positive");
  }
  std::lock_guard<std::mutex> maintenance(maintenance_mu_);
  {
    std::shared_lock<std::shared_mutex> layout_lock(layout_mu_);
    if (new_sensors_per_shard == catalog_.sensors_per_shard()) {
      return Status::OK();  // already laid out this way
    }
  }
  if (rebalancing_.exchange(true)) {
    return Status::ResourceExhausted("a rebalance is already running");
  }
  struct ClearFlag {
    std::atomic<bool>* flag;
    ~ClearFlag() { flag->store(false); }
  } clear_flag{&rebalancing_};

  // Quiesce ingest: writers check rebalancing_ under the shared layout
  // lock, so after this brief exclusive acquisition every in-flight
  // append has finished and every later one bounces — the copies below
  // see a frozen data set (searches keep running throughout).
  { std::unique_lock<std::shared_mutex> barrier(layout_mu_); }

  Vfs* const vfs = this->vfs();

  // Pending sticky eviction errors are moot: every sensor is about to
  // be rewritten into fresh files from its live, WAL-replayed state.
  (void)stores_->TakeEvictionErrors();

  ShardCatalog source;
  ShardCatalog target;
  {
    std::shared_lock<std::shared_mutex> layout_lock(layout_mu_);
    source = catalog_;
    // Generation-tagged directories ("g<sps>-shard00000", ...) so a
    // half-built target can never collide with the live layout.
    target = ShardCatalog::Place(
        catalog_.sensor_count(), new_sensors_per_shard,
        "g" + std::to_string(new_sensors_per_shard) + "-shard");
  }

  // Declare intent first: from here until the manifest is removed, a
  // crash at any point is recovered by the next Open — rolled forward
  // past the commit below, rolled back before it.
  MigrationManifest manifest;
  manifest.source = source;
  manifest.target = target;
  SEGDIFF_RETURN_IF_ERROR(manifest.Save(vfs, directory_));

  auto abort = [&](Status status) {
    // Best-effort rollback: tear down the half-built target and drop
    // the intent so the live layout stays the only one. If the
    // teardown itself fails (e.g. the fault that aborted us persists),
    // Open-time recovery finishes the rollback from the manifest.
    if (GcLayout(vfs, directory_, target, source).ok()) {
      (void)MigrationManifest::Remove(vfs, directory_);
    }
    return status;
  };

  for (size_t i = 0; i < target.shard_count(); ++i) {
    Status made = vfs->MakeDir(target.ShardDirPath(directory_, i));
    if (!made.ok()) {
      return abort(made);
    }
  }
  Status synced =
      vfs->SyncDir(directory_ + "/" + ShardCatalog::kManifestName);
  if (!synced.ok()) {
    return abort(synced);
  }

  // Copy every sensor into the new layout. Compact saves the source's
  // ingest state first, so un-flushed streaming pipelines resume
  // exactly where they left off inside the copy; CompactInto inherits
  // the Vfs and syncs the destination file.
  const size_t sensors = static_cast<size_t>(source.sensor_count());
  auto copy_one = [&](size_t i) -> Status {
    const int s = static_cast<int>(i);
    const std::string dest = target.StorePath(directory_, s);
    // A previously failed attempt may have left a partial copy here.
    SEGDIFF_RETURN_IF_ERROR(RemoveStoreFiles(vfs, dest));
    std::shared_lock<std::shared_mutex> layout_lock(layout_mu_);
    SEGDIFF_ASSIGN_OR_RETURN(StoreLru::Handle store, stores_->Acquire(s));
    SEGDIFF_RETURN_IF_ERROR(store->Compact(dest));
    return vfs->SyncDir(dest);
  };
  Status copied = ParallelFor(
      sensors, FanOutWidth(MaintenanceWidth(), sensors), nullptr, copy_one);
  if (!copied.ok()) {
    return abort(copied);
  }

  // Commit: under the exclusive layout lock no search holds a store
  // pinned, so close every resident store (its file is about to stop
  // being the layout), then atomically swap the CATALOG. The swap is
  // the single point of no return — before it a crash rolls back,
  // after it a crash rolls forward.
  {
    std::unique_lock<std::shared_mutex> layout_lock(layout_mu_);
    for (int s : stores_->OpenSensors()) {
      (void)stores_->Evict(s);  // the copies already hold this state
    }
    (void)stores_->TakeEvictionErrors();
    Status committed = target.Save(vfs, directory_);
    if (!committed.ok()) {
      layout_lock.unlock();
      return abort(committed);
    }
    catalog_ = target;  // the open-factory resolves paths through this
  }
  Status cleaned = GcLayout(vfs, directory_, source, target);
  if (cleaned.ok()) {
    cleaned = MigrationManifest::Remove(vfs, directory_);
  }
  if (!cleaned.ok()) {
    // The rebalance itself committed; only the old generation's
    // teardown is unfinished, and the surviving manifest makes the
    // next Open complete it.
    return cleaned.WithMessage(
        "rebalance committed, but cleaning up the old layout failed (the "
        "next Open finishes it): " + std::string(cleaned.message()));
  }
  return Status::OK();
}

Result<TransectHealthReport> TransectIndex::Verify(
    const TransectVerifyOptions& options) {
  std::lock_guard<std::mutex> maintenance(maintenance_mu_);
  TransectHealthReport report;
  {
    std::shared_lock<std::shared_mutex> layout_lock(layout_mu_);
    report.sensors_total = catalog_.sensor_count();
  }
  const auto start = std::chrono::steady_clock::now();
  auto add_issue = [&](int sensor, bool corrupt, bool transient,
                       std::string message) {
    if (report.issues.size() < TransectHealthReport::kMaxIssueRecords) {
      report.issues.push_back(
          TransectSensorIssue{sensor, corrupt, transient,
                              std::move(message)});
    }
  };
  for (int s = 0; s < report.sensors_total; ++s) {
    bool scanned = true;
    {
      std::shared_lock<std::shared_mutex> layout_lock(layout_mu_);
      Result<StoreLru::Handle> acquired = stores_->Acquire(s);
      if (!acquired.ok()) {
        // Transient IO means "retry the sweep"; anything else that
        // keeps a store closed counts as damage.
        const Status& status = acquired.status();
        const bool transient = status.IsTransient();
        if (transient) {
          ++report.sensors_unavailable;
        } else {
          ++report.sensors_corrupt;
        }
        add_issue(s, !transient, transient,
                  "store did not open: " + std::string(status.message()));
        continue;
      }
      StoreLru::Handle store = std::move(acquired).value();
      const StoreHealth health = store->db()->GetHealth();
      if (health.degraded) {
        ++report.sensors_degraded;
        add_issue(s, false, false,
                  "degraded (read-only): " + health.degraded_reason);
      }
      report.quarantined_pages += health.quarantined_pages;
      report.bytes_scanned += store->GetSizes().file_bytes;
      Result<ScrubReport> scrubbed = store->db()->Scrub();
      if (!scrubbed.ok()) {
        const Status& status = scrubbed.status();
        const bool transient = status.IsTransient();
        if (transient) {
          ++report.sensors_unavailable;
        } else {
          ++report.sensors_corrupt;
        }
        add_issue(s, !transient, transient,
                  "scrub failed: " + std::string(status.message()));
        scanned = false;
      } else {
        report.pages_checked += scrubbed->pages_checked;
        if (!scrubbed->clean()) {
          ++report.sensors_corrupt;
          report.pages_corrupt += scrubbed->corrupt.size();
          add_issue(s, true, false,
                    std::to_string(scrubbed->corrupt.size()) +
                        " corrupt page(s), first: " +
                        scrubbed->corrupt.front().message);
        }
      }
    }
    if (scanned) {
      ++report.sensors_scanned;
    }
    ThrottleSweep(options.rate_limit_bytes_per_sec, report.bytes_scanned,
                  start);
  }
  return report;
}

Result<TransectRepairReport> TransectIndex::RepairAll(
    const TransectVerifyOptions& options) {
  std::lock_guard<std::mutex> maintenance(maintenance_mu_);
  TransectRepairReport report;
  int sensors = 0;
  {
    std::shared_lock<std::shared_mutex> layout_lock(layout_mu_);
    sensors = catalog_.sensor_count();
  }
  const auto start = std::chrono::steady_clock::now();
  for (int s = 0; s < sensors; ++s) {
    SEGDIFF_RETURN_IF_ERROR(RepairSensor(s, &report));
    ThrottleSweep(options.rate_limit_bytes_per_sec, report.bytes_scanned,
                  start);
  }
  return report;
}

Status TransectIndex::RepairSensor(int sensor,
                                   TransectRepairReport* report) {
  ++report->sensors_checked;
  auto add_issue = [&](bool corrupt, bool transient, std::string message) {
    if (report->issues.size() < TransectHealthReport::kMaxIssueRecords) {
      report->issues.push_back(
          TransectSensorIssue{sensor, corrupt, transient,
                              std::move(message)});
    }
  };

  // Diagnose under the shared lock: searches keep serving while the
  // healthy majority of the transect is swept.
  bool damaged = false;
  {
    std::shared_lock<std::shared_mutex> layout_lock(layout_mu_);
    Result<StoreLru::Handle> acquired = stores_->Acquire(sensor);
    if (!acquired.ok()) {
      const Status& status = acquired.status();
      if (status.IsTransient()) {
        // IO flakiness, not damage: salvaging now could lose rows a
        // retry would have kept. Report and leave the store alone.
        ++report->sensors_failed;
        add_issue(false, true,
                  "store unavailable: " + std::string(status.message()));
        return Status::OK();
      }
      damaged = true;
    } else {
      StoreLru::Handle store = std::move(acquired).value();
      const StoreHealth health = store->db()->GetHealth();
      report->bytes_scanned += store->GetSizes().file_bytes;
      Result<ScrubReport> scrubbed = store->db()->Scrub();
      if (!scrubbed.ok()) {
        if (scrubbed.status().IsTransient()) {
          ++report->sensors_failed;
          add_issue(false, true,
                    "scrub failed: " +
                        std::string(scrubbed.status().message()));
          return Status::OK();
        }
        damaged = true;
      } else {
        // A degraded flag or quarantined pages also warrant a rewrite:
        // the salvaged copy starts clean on fresh, writable pages.
        damaged = !scrubbed->clean() || health.quarantined_pages > 0 ||
                  health.degraded;
      }
    }
  }
  if (!damaged) {
    return Status::OK();
  }

  // Salvage and swap under the exclusive lock: nothing may search or
  // append to this (damaged) sensor while its file is replaced, and
  // the brief outage only spans the one store's copy.
  Vfs* const vfs = this->vfs();
  std::string path;
  RepairReport one;
  Status repaired;
  std::string tmp;
  {
    std::unique_lock<std::shared_mutex> layout_lock(layout_mu_);
    path = catalog_.StorePath(directory_, sensor);
    tmp = path + ".repair";
    repaired = RemoveStoreFiles(vfs, tmp);  // stale leftovers
    if (repaired.ok()) {
      // Inner scope: the pin must drop before the Evict below, or the
      // eviction would wait on our own handle forever.
      Result<StoreLru::Handle> acquired = stores_->Acquire(sensor);
      if (acquired.ok()) {
        // Engine-level repair: the WAL already replayed into the live
        // state, so acknowledged-but-unapplied writes survive the copy.
        repaired = (*acquired)->Repair(tmp, &one);
      } else {
        // The store will not open; salvage at the database layer.
        DatabaseOptions raw;
        raw.buffer_pool_pages = store_options_.buffer_pool_pages;
        raw.vfs = store_options_.vfs;
        repaired = Database::RepairFile(path, tmp, raw, &one);
      }
    }
    if (repaired.ok()) {
      (void)stores_->Evict(sensor);  // its file is about to be replaced
      // The old WAL must never replay into the salvaged file (its
      // records belong to the old pages); what it covered is already
      // in the copy or counted as salvage loss.
      repaired = IgnoreNotFound(vfs->RemoveFile(Wal::PathFor(path)));
      if (repaired.ok()) {
        repaired = vfs->Rename(tmp, path);
      }
      if (repaired.ok()) {
        repaired = vfs->SyncDir(path);
      }
    }
  }
  if (!repaired.ok()) {
    (void)RemoveStoreFiles(vfs, tmp);
    ++report->sensors_failed;
    add_issue(repaired.IsCorruption(), repaired.IsTransient(),
              "repair failed: " + std::string(repaired.message()));
    return Status::OK();
  }
  ++report->sensors_repaired;
  report->totals.tables += one.tables;
  report->totals.rows_salvaged += one.rows_salvaged;
  report->totals.pages_skipped += one.pages_skipped;
  report->totals.rows_lost += one.rows_lost;
  add_issue(true, false,
            "repaired: " + std::to_string(one.rows_salvaged) +
                " row(s) salvaged, " + std::to_string(one.rows_lost) +
                " lost");
  return Status::OK();
}

Result<StoreLru::Handle> TransectIndex::sensor(int index) {
  std::shared_lock<std::shared_mutex> layout_lock(layout_mu_);
  if (index < 0 || index >= catalog_.sensor_count()) {
    return Status::InvalidArgument("sensor index out of range");
  }
  return stores_->Acquire(index);
}

Status TransectIndex::Checkpoint() {
  std::shared_lock<std::shared_mutex> layout_lock(layout_mu_);
  // Only resident stores can have unpersisted state: eviction
  // checkpoints a store before closing it, and untouched stores were
  // never opened.
  const std::vector<int> open = stores_->OpenSensors();
  auto checkpoint_one = [&](size_t i) -> Status {
    SEGDIFF_ASSIGN_OR_RETURN(StoreLru::Handle store,
                             stores_->Acquire(open[i]));
    return store->Checkpoint();
  };
  return ParallelFor(open.size(), FanOutWidth(MaintenanceWidth(), open.size()),
                     nullptr, checkpoint_one);
}

Status TransectIndex::DropCaches() {
  std::shared_lock<std::shared_mutex> layout_lock(layout_mu_);
  const std::vector<int> open = stores_->OpenSensors();
  for (int s : open) {
    SEGDIFF_ASSIGN_OR_RETURN(StoreLru::Handle store, stores_->Acquire(s));
    SEGDIFF_RETURN_IF_ERROR(store->DropCaches());
  }
  return Status::OK();
}

Result<TransectSizes> TransectIndex::GetSizes() {
  std::shared_lock<std::shared_mutex> layout_lock(layout_mu_);
  // Per-shard partial sums merged in shard order: integer sums, so the
  // parallel sweep equals the serial one exactly.
  const size_t shard_count = catalog_.shard_count();
  std::vector<TransectSizes> partials;
  Status status = ParallelMap(
      shard_count, FanOutWidth(MaintenanceWidth(), shard_count), nullptr,
      &partials,
      [&](size_t shard, TransectSizes* out) -> Status {
        const ShardInfo& info = catalog_.shard(shard);
        const int last = info.first_sensor + info.sensor_count;
        for (int s = info.first_sensor; s < last; ++s) {
          SEGDIFF_ASSIGN_OR_RETURN(StoreLru::Handle store,
                                   stores_->Acquire(s));
          const SegDiffSizes one = store->GetSizes();
          out->feature_bytes += one.feature_bytes;
          out->feature_rows += one.feature_rows;
          out->index_bytes += one.index_bytes;
          out->file_bytes += one.file_bytes;
        }
        return Status::OK();
      });
  if (!status.ok()) {
    return status;
  }
  TransectSizes sizes;
  for (const TransectSizes& one : partials) {
    sizes.feature_bytes += one.feature_bytes;
    sizes.feature_rows += one.feature_rows;
    sizes.index_bytes += one.index_bytes;
    sizes.file_bytes += one.file_bytes;
  }
  return sizes;
}

size_t TransectIndex::FanOutWidth(size_t width, size_t items) const {
  width = std::min(width, items);
  if (stores_->max_open() != 0) {
    width = std::min(width, stores_->max_open());
  }
  return width;
}

}  // namespace segdiff
