#include "segdiff/feature_store.h"

#include <utility>

#include "common/stopwatch.h"
#include "storage/wal.h"

namespace segdiff {
namespace {

/// Version of the ingest-state blob framing (magic, version, payload).
constexpr uint32_t kIngestStateVersion = 1;

}  // namespace

Status QuarantineScanError(Status status, const std::string& what) {
  if (status.ok() || !status.IsCorruption()) {
    return status;
  }
  return Status::Corruption(
      "quarantined range: " + what + " has unreadable pages [" +
      std::string(status.message()) +
      "]; run `segdiff_cli verify --scrub` to map the damage, then "
      "rebuild or compact from a healthy replica");
}

FeatureStore::FeatureStore(const AdmissionOptions& admission, Engine engine)
    : engine_(std::move(engine)), admission_(admission) {}

FeatureStore::~FeatureStore() {
  // Only a fully-opened store saves state: after a failed Open the
  // engine's state is default or partially restored, and writing it back
  // would destroy the persisted resume point (and mask the corruption).
  if (opened_) {
    SaveState();  // db_'s destructor checkpoints the catalog
  }
}

Status FeatureStore::Open(const std::string& path, const StoreOptions& options,
                          bool create_if_missing,
                          const std::function<Status()>& lay_out) {
  Status status = [&]() -> Status {
    DatabaseOptions db_options;
    db_options.buffer_pool_pages = options.buffer_pool_pages;
    db_options.create_if_missing = create_if_missing;
    db_options.sim_seq_read_ns = options.sim_seq_read_ns;
    db_options.sim_random_read_ns = options.sim_random_read_ns;
    db_options.vfs = options.vfs;
    db_options.verify_checksums = options.verify_checksums;
    db_options.wal = options.wal;
    db_options.wal_group_commit_ms = options.wal_group_commit_ms;
    // Engine stores log the observation stream, not the rows it fans out
    // into: one kObservation record redoes the whole apply step (for
    // SegDiff a segment row + up to 6 feature rows + index inserts) on
    // replay.
    db_options.wal_observation_log = true;
    SEGDIFF_ASSIGN_OR_RETURN(db_, Database::Open(path, db_options));
    SEGDIFF_RETURN_IF_ERROR(RestoreState());
    SEGDIFF_RETURN_IF_ERROR(lay_out());
    return DrainRecoveredOps();
  }();
  if (!status.ok()) {
    // A failed open must not mutate the store: the destructor will not
    // save (default/partial) ingest state over the persisted blob, and
    // the abandoned database handle neither checkpoints nor flushes on
    // close — the files stay as they were, recovery still possible.
    if (db_ != nullptr) {
      db_->Abandon();
    }
    return status;
  }
  opened_ = true;
  return Status::OK();
}

Status FeatureStore::RestoreState() {
  Result<std::string> blob = db_->GetMeta(engine_.state_key);
  if (!blob.ok()) {
    if (!blob.status().IsNotFound()) {
      return blob.status();
    }
    // No blob means a fresh store: every checkpoint that makes rows
    // durable saves the blob first (the wrappers below and the close
    // path), and CompactInto/Repair copy it. Rows without one cannot be
    // resumed from, so refuse rather than guess a resume point.
    for (const auto& table : db_->tables()) {
      if (table->row_count() > 0) {
        return Status::Corruption(std::string("store has rows but no '") +
                                  engine_.state_key +
                                  "' ingest-state blob to resume from");
      }
    }
    return Status::OK();
  }
  ByteReader r(*blob);
  SEGDIFF_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  SEGDIFF_ASSIGN_OR_RETURN(uint32_t version, r.U32());
  if (magic != engine_.state_magic || version != kIngestStateVersion) {
    return Status::Corruption(std::string("bad '") + engine_.state_key +
                              "' ingest-state blob");
  }
  return engine_.restore_state(&r, &observations_);
}

void FeatureStore::SaveState() {
  ByteWriter w;
  w.U32(engine_.state_magic);
  w.U32(kIngestStateVersion);
  engine_.save_state(observations_, &w);
  // Suspended: the blob must reach the catalog only via Checkpoint,
  // which flushes the tables it describes in the same operation. A
  // kPutMeta WAL record would let recovery restore an engine state
  // newer than the checkpointed tables and then skip re-deriving (via
  // DrainRecoveredOps) exactly the rows that reverted with the data
  // file. The state is redundant with the observation log, so losing
  // the un-checkpointed blob costs nothing.
  Wal::Suspend suspend(db_->wal());
  // Suspended appends are no-ops, so this PutMeta cannot fail.
  (void)db_->PutMeta(engine_.state_key, w.Take());
}

Status FeatureStore::DrainRecoveredOps() {
  if (!db_->HasRecoveredOps()) {
    return Status::OK();
  }
  std::vector<WalRecord> ops = db_->TakeRecoveredOps();
  // Replay through the engine, suspended so nothing is logged twice.
  // The restored blob is checkpoint-consistent with the tables
  // (SaveState never WAL-logs it), so the backlog normally applies in
  // full. Anything the engine rejects by its strictly-increasing-
  // timestamp rule — a stale append (logged before the engine saw it)
  // or an observation the restored state already covers — is skipped,
  // which keeps the replay idempotent.
  Wal::Suspend suspend(db_->wal());
  for (const WalRecord& op : ops) {
    if (op.type == WalRecordType::kFlush) {
      if (engine_.flush) {
        SEGDIFF_RETURN_IF_ERROR(engine_.flush());
      }
      continue;
    }
    SEGDIFF_ASSIGN_OR_RETURN(WalObservation obs,
                             DecodeWalObservation(op.payload));
    Status status = engine_.apply(obs.t, obs.v);
    if (status.IsInvalidArgument()) {
      continue;  // already absorbed before the crash
    }
    SEGDIFF_RETURN_IF_ERROR(status);
    ++observations_;
  }
  return Status::OK();
}

Status FeatureStore::Append(double t, double v) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  Status status = [&]() -> Status {
    if (db_->degraded()) {
      // Fail fast with the recorded reason instead of tearing further
      // state; searches keep running off the durable prefix.
      return Status::NoSpace("store is degraded (read-only): " +
                             db_->GetHealth().degraded_reason);
    }
    if (db_->wal() != nullptr) {
      // WAL-before-data: the redo record is in the log (buffered for the
      // next group commit) before the engine touches any page. A log
      // failure applies nothing, so a later commit can never acknowledge
      // rows a crash would lose.
      SEGDIFF_RETURN_IF_ERROR(db_->wal()->AppendObservation(t, v).status());
    }
    SEGDIFF_RETURN_IF_ERROR(engine_.apply(t, v));
    ++observations_;
    return Status::OK();
  }();
  if (!status.ok()) {
    // A no-space failure flips the store into degraded read-only mode;
    // the observation was not acknowledged and will not be partially
    // visible (WAL-before-data keeps replay consistent).
    db_->NoteStorageFailure(status);
  }
  return status;
}

Status FeatureStore::Flush() {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  Status status = [&]() -> Status {
    Wal* wal = db_->wal();
    if (wal != nullptr) {
      SEGDIFF_RETURN_IF_ERROR(wal->AppendFlushMarker().status());
    }
    if (engine_.flush) {
      SEGDIFF_RETURN_IF_ERROR(engine_.flush());
    }
    if (wal != nullptr) {
      // Acknowledged means durable: everything appended so far survives a
      // crash from here on. State is saved first so an auto-checkpoint
      // (which truncates the log) leaves a consistent resume point.
      SaveState();
      SEGDIFF_RETURN_IF_ERROR(wal->Sync());
      SEGDIFF_RETURN_IF_ERROR(db_->MaybeAutoCheckpoint());
    }
    return Status::OK();
  }();
  if (!status.ok()) {
    db_->NoteStorageFailure(status);
  }
  return status;
}

Status FeatureStore::Search(
    SearchKind kind, double T, double V, double window_s,
    const SearchOptions& options, SearchStats* stats,
    const std::function<Status(const SearchScope&)>& run,
    const std::function<Result<uint64_t>()>& finish) {
  if (kind == SearchKind::kDrop && !(V < 0.0)) {
    return Status::InvalidArgument("drop search requires V < 0");
  }
  if (kind == SearchKind::kJump && !(V > 0.0)) {
    return Status::InvalidArgument("jump search requires V > 0");
  }
  if (!(T > 0.0)) {
    return Status::InvalidArgument("T must be positive");
  }
  if (T > window_s) {
    return Status::InvalidArgument(
        "T exceeds the configured window w; rebuild with a larger window");
  }
  Stopwatch stopwatch;
  SearchStats local;

  // Governance shell: one context shared by every thread of this search,
  // one budget charged by result growth, one admission slot held for the
  // query's whole execution.
  MemoryBudget budget(options.max_result_bytes);
  QueryContext ctx;
  ctx.cancel = options.cancel;
  ctx.deadline = options.deadline_ms > 0
                     ? Deadline::Earlier(options.deadline,
                                         Deadline::AfterMillis(
                                             options.deadline_ms))
                     : options.deadline;
  ctx.budget = &budget;

  Stopwatch admission_watch;
  Result<AdmissionController::Ticket> ticket =
      admission_.Admit(ctx, options.priority);
  if (!ticket.ok()) {
    admission_.RecordOutcome(ticket.status(), 0, false);
    return ticket.status();
  }
  local.admission_wait_ms = admission_watch.ElapsedMillis();

  SearchScope scope;
  scope.ctx = &ctx;
  // 0/1 stays serial (paper semantics); explicit parallelism is clamped
  // by the store's per-query worker limit.
  scope.num_threads = options.num_threads <= 1
                          ? options.num_threads
                          : admission_.ClampThreads(options.num_threads);
  scope.pool =
      scope.num_threads > 1 ? SharedThreadPool(scope.num_threads) : nullptr;

  // Freeze the view this search reads: taken between ingest operations
  // (under ingest_mu_), so it is a consistent cut of every table, and
  // the search needs no further coordination with concurrent appends.
  DatabaseSnapshot snapshot;
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    snapshot = db_->CreateSnapshot();
    local.snapshot_observations = observations_;
  }
  scope.snapshot = &snapshot;
  // With a stats out-param the search degrades gracefully over
  // quarantined pages (routing around them, flagging the result
  // partial); without one there is nowhere to surface the flag, so
  // corruption stays a hard error.
  scope.allow_partial = stats != nullptr;
  scope.stats = &local;

  Status status = run(scope);
  bool truncated = false;
  if (!status.ok()) {
    if (status.IsResourceExhausted() && budget.breached() &&
        stats != nullptr) {
      // Budget breach degrades gracefully: keep the results collected so
      // far and flag the cut. Without a stats out-param there is nowhere
      // to surface the flag, so fail instead — never a silent cut.
      truncated = true;
    } else {
      admission_.RecordOutcome(status, budget.peak(),
                               status.IsResourceExhausted() &&
                                   budget.breached());
      return status;
    }
  }
  Result<uint64_t> kept = finish();
  if (!kept.ok()) {
    admission_.RecordOutcome(kept.status(), budget.peak(), false);
    return kept.status();
  }

  local.pairs_returned = *kept;
  local.truncated = truncated;
  local.partial = local.scan.pages_quarantined > 0 ||
                  local.scan.rows_quarantined > 0;
  local.result_bytes_peak = budget.peak();
  local.seconds = stopwatch.ElapsedSeconds();
  admission_.RecordOutcome(Status::OK(), budget.peak(), truncated);
  if (stats != nullptr) {
    *stats = local;
  }
  return Status::OK();
}

Status FeatureStore::EnsureZoneMaps(const std::vector<Table*>& tables) {
  // The attach mutates the live tables, so appends are excluded; the map
  // becomes visible to later snapshots (a search whose snapshot predates
  // it scans unpruned, which is correct, just slower).
  std::lock_guard<std::mutex> lock(ingest_mu_);
  for (Table* table : tables) {
    SEGDIFF_RETURN_IF_ERROR(QuarantineScanError(
        table->EnsureZoneMap(), "table '" + table->name() + "'"));
  }
  return Status::OK();
}

Status FeatureStore::Checkpoint() {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  SaveState();
  return db_->Checkpoint();
}

Status FeatureStore::Compact(const std::string& destination_path) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  SaveState();  // the copied ingest blob must reflect the tables
  return db_->CompactInto(destination_path);
}

Status FeatureStore::Repair(const std::string& destination_path,
                            RepairReport* report) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  // Best-effort: on a degraded store PutMeta is gated, so the copied
  // blob is the last one saved — the WAL backlog (already replayed at
  // Open) covers the difference.
  SaveState();
  return db_->Repair(destination_path, report);
}

Status FeatureStore::DropCaches() {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  SaveState();
  return db_->DropCaches();
}

}  // namespace segdiff
