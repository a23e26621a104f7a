// Database: the top-level minidb handle.
//
// One file, one pager, one buffer pool, a write-ahead log, a catalog of
// tables. The embedded stand-in for the MySQL instance the paper stores
// SegDiff/Exh features in.
//
// Durability model (WAL mode, the default):
//   - every logical mutation (raw row insert / engine observation) is
//     logged before its pages are touched; the log is fsynced in
//     group-commit batches (see storage/wal.h). Meta blobs are not
//     logged: they persist with the next checkpoint;
//   - Checkpoint() is fuzzy: it syncs the log, writes the catalog (when
//     it changed) and all dirty pages, stamps the pager header with the
//     applied LSN, fsyncs the data file, then truncates the log to a
//     fresh generation. A crash at any point replays the log tail past
//     the header's applied LSN on the next Open — replay is idempotent and
//     byte-deterministic, so replaying twice yields identical files;
//   - a failed Open is side-effect-free: recovery replays into the
//     buffer pool only (nothing is written, synced, or truncated until
//     the first successful Checkpoint or page steal);
//   - reads write nothing: a checkpoint that finds nothing to persist
//     (see Checkpoint) does no IO, so opening a store, reading it and
//     closing it leaves its files byte-identical and creates no WAL
//     sidecar.
//
// Concurrency: one writer (the ingest path) plus any number of readers
// holding DatabaseSnapshots (storage/snapshot.h). Writers and snapshot
// creation must be externally serialized (the engines use their ingest
// mutex); snapshot readers then run with no further coordination.

#ifndef SEGDIFF_STORAGE_DB_H_
#define SEGDIFF_STORAGE_DB_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "storage/pager.h"
#include "storage/snapshot.h"
#include "storage/table.h"
#include "storage/wal.h"

namespace segdiff {

struct DatabaseOptions {
  /// Buffer pool capacity in pages (default 32 MiB at 8 KiB pages).
  size_t buffer_pool_pages = 4096;
  bool create_if_missing = true;
  /// Simulated storage read latency (see Pager::SetSimulatedReadLatency);
  /// 0/0 disables. Used by the cache experiments to model the paper's
  /// rotating disk on RAM-backed filesystems.
  uint64_t sim_seq_read_ns = 0;
  uint64_t sim_random_read_ns = 0;
  /// File system the store does its IO through; nullptr = the default
  /// POSIX Vfs. Non-owning: must outlive the database. Tests inject a
  /// FaultInjectionVfs here to exercise crash recovery.
  Vfs* vfs = nullptr;

  /// Write-ahead logging. Off, the store falls back to checkpoint-only
  /// durability (everything since the last Checkpoint is lost on a
  /// crash). Forced off for ":memory:" stores.
  bool wal = true;
  /// Group-commit window in milliseconds: 0 fsyncs inside every append,
  /// > 0 batches appends and makes them durable at most this much
  /// later.
  int64_t wal_group_commit_ms = 1;
  /// Engine stores set this: the WAL logs kObservation/kFlush records
  /// (the redo unit is the observation; the rows it deterministically
  /// fans out into are not logged) instead of per-row kRowAppend.
  bool wal_observation_log = false;
  /// Replay the WAL tail at Open. Off, the log is neither replayed nor
  /// opened for writing — strictly for read-only inspection (the CLI's
  /// verify path); pair it with Abandon() so close writes nothing.
  bool replay_wal = true;
};

/// Aggregate size statistics (paper Section 6 metrics).
struct DatabaseSizeStats {
  uint64_t data_bytes = 0;   ///< heap pages: "feature size"
  uint64_t index_bytes = 0;  ///< B+-tree pages
  uint64_t file_bytes = 0;   ///< whole file; data+index+metadata
};

/// Durability status surfaced by `segdiff_cli stats`.
struct WalInfo {
  bool enabled = false;
  uint64_t size_bytes = 0;      ///< log file + buffered bytes
  uint64_t last_lsn = 0;        ///< last assigned LSN
  uint64_t durable_lsn = 0;     ///< last fsynced LSN
  uint64_t applied_lsn = 0;     ///< pager header: checkpointed through
  uint64_t recovered_records = 0;  ///< records replayed at Open
  /// Bytes of torn log tail discarded at Open — expected after a crash
  /// mid-append (those records were never acknowledged), but non-zero
  /// on a clean-shutdown store means the log was damaged afterwards.
  uint64_t trimmed_tail_bytes = 0;
  int64_t group_commit_ms = 0;
  WalStats stats;
};

/// Degradation summary surfaced by `segdiff_cli stats` and the engines'
/// health checks.
struct StoreHealth {
  /// The store hit an unrecoverable write failure (disk full) and is
  /// serving reads only; every mutation returns the original error.
  bool degraded = false;
  std::string degraded_reason;  ///< first failure that flipped the flag
  uint64_t quarantined_pages = 0;  ///< checksum-failed pages on record
  uint64_t wal_trimmed_tail_bytes = 0;  ///< torn log tail cut at Open
  uint64_t pool_read_failures = 0;  ///< failed page reads (buffer pool)
};

/// What Repair() salvaged and what it had to leave behind. The losses
/// are the copy scan's ScanStats::pages_quarantined / rows_quarantined:
/// a dropped columnar segment counts as its page span, as it does for a
/// partial search.
struct RepairReport {
  uint64_t tables = 0;
  uint64_t rows_salvaged = 0;
  uint64_t pages_skipped = 0;  ///< corrupt pages routed around
  uint64_t rows_lost = 0;      ///< rows on the skipped pages
};

class Database {
 public:
  /// Opens (creating if allowed) the database at `path`, loading the
  /// catalog, attaching all tables and indexes, and replaying the WAL
  /// tail left by a crash. Replay is in-memory: a failed Open leaves
  /// both files byte-identical.
  static Result<std::unique_ptr<Database>> Open(const std::string& path,
                                                const DatabaseOptions& options);

  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Checkpoint + WAL shutdown. Idempotent; the destructor calls it
  /// (logging, not returning, errors) unless Abandon() was called.
  Status Close();

  /// Declares the handle dead: nothing is checkpointed or flushed at
  /// destruction and the store's files stay as they are — recovery can
  /// still salvage them. Engines call this when their Open fails after
  /// the Database was created (closing then would rewrite the catalog
  /// of a store that was never successfully opened); the CLI uses it
  /// for read-only inspection.
  void Abandon();

  /// Creates a new empty table. In WAL mode the creation is
  /// checkpointed immediately (redo records reference tables by name,
  /// so the table must be durable before rows are logged against it).
  Result<Table*> CreateTable(const std::string& name, TableSchema schema);

  /// Looks up a table by name.
  Result<Table*> GetTable(const std::string& name) const;

  const std::vector<std::unique_ptr<Table>>& tables() const {
    return tables_;
  }

  /// Stores a named opaque blob in the in-memory catalog; it persists
  /// with the next Checkpoint, atomically with the tables, and is never
  /// WAL-logged (a crash before that checkpoint loses it). Engines use
  /// this for state that must ride along with the tables — e.g.
  /// resumable ingest state. A degraded store refuses the update.
  Status PutMeta(const std::string& name, std::string blob);

  /// The named blob, or NotFound.
  Result<std::string> GetMeta(const std::string& name) const;

  /// Removes the named blob from the in-memory catalog (persisted like
  /// PutMeta); returns whether it existed, or the degraded-mode error
  /// (in which case nothing was erased).
  Result<bool> EraseMeta(const std::string& name);

  /// Persists catalog + all dirty pages + file header. In WAL mode this
  /// is the fuzzy checkpoint described in the file comment; the log is
  /// truncated only when the recovered observation backlog (see
  /// TakeRecoveredOps) has been drained, so un-replayed engine records
  /// are never discarded. The catalog chain is rewritten only when its
  /// encoded payload differs from the stored one. Does no IO at all
  /// when there is nothing to persist: no dirty page, no unsynced pager
  /// write, an encoded catalog equal to the stored one, and (WAL on) a
  /// log that Wal::CleanAt the applied LSN.
  Status Checkpoint();

  /// Checkpoint() iff the WAL has grown past kWalAutoCheckpointBytes;
  /// called by the engines after segment flushes to bound recovery
  /// time.
  Status MaybeAutoCheckpoint();

  /// Log size at which MaybeAutoCheckpoint() checkpoints.
  static constexpr uint64_t kWalAutoCheckpointBytes = 16ull << 20;

  /// Checkpoint, then evict the whole buffer pool: emulates the paper's
  /// "flush OS cache before every query" protocol.
  Status DropCaches();

  /// Freezes a consistent point-in-time view of every table for readers
  /// that run concurrently with ingest. Must not race with writes (the
  /// engines call it under their ingest mutex, between operations).
  DatabaseSnapshot CreateSnapshot();

  /// Recovered kObservation/kFlush records awaiting replay through the
  /// owning engine's ingest pipeline (the records' redo semantics live
  /// there, not here). The engine drains them immediately after attach;
  /// its apply and flush steps log nothing. Until drained (non-empty
  /// return not yet taken), Checkpoint keeps the log intact.
  std::vector<WalRecord> TakeRecoveredOps();

  /// Rewrites every table into a fresh database file at
  /// `destination_path` (which must not exist), reclaiming the garbage
  /// pages left behind by DeleteWhere rewrites and abandoned extents.
  /// Eligible tables (all-double, at most ZoneMap::kMaxColumns columns)
  /// are converted to compressed columnar segments on the way — the
  /// row→columnar lifecycle step — and lose their indexes (see Table's
  /// invariant); tables with other schemas stay in row format and keep
  /// theirs. This database is not modified. Catalog blobs are
  /// copied from the in-memory map, which owning engines only refresh
  /// when they persist their state — callers holding a
  /// SegDiffIndex/ExhIndex must compact through the index's Compact()
  /// (or Checkpoint first) so the copied ingest blob is consistent with
  /// the copied tables.
  Status CompactInto(const std::string& destination_path);

  /// Best-effort rebuild into a fresh store at `destination_path` (which
  /// must not exist): every row still readable is copied the way
  /// CompactInto copies (converted tables carry no index, row-format
  /// ones get theirs rebuilt from the survivors). The copy scan routes
  /// around quarantined heap pages and corrupt columnar segments by the
  /// rule partial searches use (SeqScanOptions::skip_quarantined), so a
  /// repaired store answers exactly what a partial search over the
  /// damaged one did; `report` (required) records what was salvaged and
  /// what was lost. WAL recovery happened at Open, so acknowledged rows
  /// the data file lost are already back before the copy starts. This
  /// database is not modified; after a successful repair the caller
  /// switches to the fresh store and discards this one.
  Status Repair(const std::string& destination_path, RepairReport* report);

  /// Repair at the database layer, for a store whose engine will not
  /// open: opens the store at `path` (never creating it), retrying
  /// without WAL replay when replay itself fails — the data file alone
  /// may still hold most of the rows — abandons the handle so nothing
  /// is written back to the damaged file, and Repair()s it into
  /// `destination_path`. `options` supplies the pool size and Vfs.
  static Status RepairFile(const std::string& path,
                           const std::string& destination_path,
                           DatabaseOptions options, RepairReport* report);

  /// True once a storage failure flipped the store read-only.
  bool degraded() const { return degraded_.load(std::memory_order_acquire); }

  /// Reports a storage-write failure observed by a caller (engine flush,
  /// checkpoint, WAL append). A no-space failure flips the store into
  /// degraded read-only mode: queries keep running off the pages already
  /// on disk and in cache, while every later mutation fails fast with
  /// the recorded reason instead of tearing more state. Transient and
  /// permanent I/O errors do not flip the flag (retries handle the
  /// former; the latter fail loudly per-operation).
  void NoteStorageFailure(const Status& status);

  StoreHealth GetHealth() const;

  BufferPool* buffer_pool() { return pool_.get(); }
  Pager* pager() { return pager_.get(); }
  /// The write-ahead log, or nullptr (WAL off). Engines append their
  /// observation records through it.
  Wal* wal() { return wal_.get(); }

  WalInfo GetWalInfo() const;

  /// Flushes dirty pages, then walks every page of the file verifying
  /// its checksum (segdiff_cli verify --scrub). Collects corrupt pages
  /// instead of failing on the first; read-only on the file contents
  /// apart from the flush.
  Result<ScrubReport> Scrub();

  DatabaseSizeStats SizeStats() const;

 private:
  Database() = default;

  /// Applies the WAL tail's kRowAppend records to the in-memory tables
  /// (unlogged); kObservation/kFlush records are set aside for the
  /// engine, and undo images were already applied by Open.
  Status ReplayWal(std::vector<WalRecord> records);

  /// Checkpoint body (Checkpoint() wraps it with the degraded-mode gate
  /// and failure classification).
  Status CheckpointImpl();

  /// Shared rewrite behind CompactInto (salvage=false: any read error
  /// fails the copy) and Repair (salvage=true: corrupt pages and
  /// segments are routed around and accounted in `report`).
  Status CopyInto(const std::string& destination_path, bool salvage,
                  RepairReport* report);

  /// The error every mutation returns while degraded.
  Status DegradedError() const;

  std::unique_ptr<Pager> pager_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<BufferPool> pool_;
  std::vector<std::unique_ptr<Table>> tables_;
  std::map<std::string, std::string> meta_;  ///< named catalog blobs
  /// The catalog payload as last read from or written to page 1's chain;
  /// a checkpoint whose encoded catalog equals it need not rewrite it.
  std::string catalog_payload_;
  std::vector<WalRecord> recovered_ops_;  ///< engine records to drain
  uint64_t recovered_count_ = 0;          ///< records replayed at Open
  bool opened_ = false;     ///< Open() completed successfully
  bool closed_ = false;     ///< Close() already ran
  bool abandoned_ = false;  ///< Abandon() called
  /// Degraded read-only mode (see NoteStorageFailure). The flag is
  /// atomic so concurrent readers can consult it without the mutex,
  /// which only guards the reason string.
  std::atomic<bool> degraded_{false};
  mutable std::mutex health_mu_;
  std::string degraded_reason_;  ///< guarded by health_mu_
};

}  // namespace segdiff

#endif  // SEGDIFF_STORAGE_DB_H_
