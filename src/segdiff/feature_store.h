// FeatureStore: the store shell SegDiffIndex and ExhIndex share.
//
// The paper stores SegDiff's features and the Exh baseline's pair rows
// in the same database and answers both with standard range queries
// (Section 6), so the two engines differ only in what they store and how
// they query it. Each engine holds a FeatureStore and supplies exactly
// that difference — its table layout, how one observation becomes rows,
// the state it persists to resume appending, and its range queries plus
// result finishing. The shell owns everything else, once:
//
//   open     the Database (a failed open abandons it, files untouched),
//            resume from the ingest-state blob, WAL backlog replay
//   ingest   one append/flush path: degraded fast-fail, WAL before data
//            with its status propagated, NoteStorageFailure
//   search   T/V validation, admission, deadline/cancel context, memory
//            budget, snapshot on an append boundary, allow-partial,
//            the truncation contract, governance counters
//   upkeep   Checkpoint/Compact/Repair/DropCaches, each saving the
//            ingest state before calling the database

#ifndef SEGDIFF_SEGDIFF_FEATURE_STORE_H_
#define SEGDIFF_SEGDIFF_FEATURE_STORE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/admission.h"
#include "common/bytes.h"
#include "common/governance.h"
#include "common/result.h"
#include "feature/cases.h"
#include "query/executor.h"
#include "storage/db.h"

namespace segdiff {

/// Storage and admission settings shared by SegDiffOptions and
/// ExhOptions.
struct StoreOptions {
  size_t buffer_pool_pages = 4096;
  /// Simulated storage read latency (cold-cache experiments); 0 = off.
  uint64_t sim_seq_read_ns = 0;
  uint64_t sim_random_read_ns = 0;
  /// File system the store's IO goes through (nullptr = default POSIX
  /// Vfs; non-owning). Fault-injection tests substitute their own.
  Vfs* vfs = nullptr;
  /// Write-ahead logging: every appended observation is redo-logged and
  /// group-committed, so a crash loses at most the tail after the last
  /// group commit. false reverts to checkpoint-only durability (an
  /// unclean shutdown loses everything since the last Checkpoint).
  bool wal = true;
  /// Group-commit window in milliseconds; 0 = fsync every append.
  int64_t wal_group_commit_ms = 1;
  /// Admission-control limits for this store's query entry points
  /// (defaults auto-size to the machine; see AdmissionOptions).
  AdmissionOptions admission;
};

/// How a search executes its range queries.
enum class QueryMode : unsigned char {
  kSeqScan = 0,   ///< paper's "sequential scan"
  kIndexScan = 1, ///< paper's "using indexes"
  kAuto = 2,      ///< planner picks per point/line query
};

/// Per-search knobs.
struct SearchOptions {
  QueryMode mode = QueryMode::kSeqScan;
  /// Paper semantics issue one range query per stored corner/edge (each
  /// its own scan). `fused_scan` instead runs each feature table's
  /// queries as one pass — a single any-of SeqScan that decodes the
  /// table once, evaluates every query's column conditions in the
  /// kernels and ORs them — which is what kAuto does with the queries it
  /// plans as sequential scans. Only affects kSeqScan; the ablation
  /// bench quantifies the difference.
  bool fused_scan = false;
  /// Intra-query parallelism. 0 or 1 executes everything serially on the
  /// calling thread, preserving the paper's single-threaded semantics.
  /// >= 2 runs a search's independent tasks (per-corner queries, index
  /// scans, passes beside index scans) concurrently; a search made only
  /// of passes (and Exh scans) instead runs them one after another, each
  /// partitioned by heap page into that many concurrent runs — fan-outs
  /// never nest. Results and SearchStats are identical to the serial
  /// path; only wall-clock time changes. Requests are clamped to the
  /// store's AdmissionOptions::max_threads_per_query.
  size_t num_threads = 0;

  // Governance (see DESIGN.md §11). All default to "ungoverned".

  /// The search fails with DeadlineExceeded within one page of work
  /// once this deadline passes; a budget relative to now is
  /// Deadline::AfterMillis(ms). Absolute, so a caller can spread one
  /// budget across several searches (TransectIndex::SearchAll).
  Deadline deadline;
  /// Cooperative cancel: obtain from a CancellationSource and Cancel()
  /// from any thread; the search fails with Status::Cancelled within one
  /// page of work.
  CancellationToken cancel;
  /// Cap on result-set memory. On breach the search returns the pairs
  /// found so far with SearchStats::truncated set — or, when the caller
  /// passed no SearchStats out-param (nowhere to surface the flag),
  /// fails with ResourceExhausted instead. Never silent. 0 = unlimited.
  uint64_t max_result_bytes = 0;
};

/// Execution report for one search.
struct SearchStats {
  /// Execution counters summed over the search's scans. A pass scans
  /// each row once and counts each selected row once in rows_matched;
  /// a quarantined page or segment counts once per scan that meets it.
  ScanStats scan;
  /// Scans issued: one per per-corner query or index scan, one per pass
  /// (a table's queries run together), one per Exh scan.
  uint64_t queries_issued = 0;
  uint64_t pairs_returned = 0;
  double seconds = 0.0;
  /// Observation count frozen with the search's snapshot: the search
  /// sees exactly the features derived from the first
  /// `snapshot_observations` observations, no matter how much ingest
  /// runs concurrently (differential tests key on this).
  uint64_t snapshot_observations = 0;
  /// The result set was cut short by SearchOptions::max_result_bytes;
  /// pairs_returned counts only what was kept.
  bool truncated = false;
  /// The store has quarantined (checksum-failed) pages in the searched
  /// range: the scan routed around them, so pairs whose feature rows
  /// lived there are missing. scan.pages_quarantined/rows_quarantined
  /// size the hole. Only possible when the caller passed a SearchStats
  /// out-param — without one there is nowhere to surface the flag, and
  /// the search fails with a quarantined-range Corruption error instead.
  /// Never set together with a clean bill: partial == false means the
  /// result is complete over the snapshot.
  bool partial = false;
  /// High-water mark of result-set bytes across all of the search's
  /// threads (tracked even without a budget).
  uint64_t result_bytes_peak = 0;
  /// Time spent queued in admission control before executing.
  double admission_wait_ms = 0.0;
};

/// Rewrites a Corruption status coming out of a table scan into a
/// "quarantined range" error naming the store object (`what`), keeping
/// the underlying page diagnosis and adding remediation advice. Every
/// other status passes through unchanged. Used by the search paths so a
/// checksum-failed page surfaces as a clear, actionable error — never as
/// a partial result set.
Status QuarantineScanError(Status status, const std::string& what);

/// What one search's range queries run against, fixed by the shell
/// before the engine's queries start.
struct SearchScope {
  /// Deadline, cancellation and memory budget shared by every thread of
  /// the search.
  const QueryContext* ctx = nullptr;
  /// The frozen view every scan and index descent reads.
  const DatabaseSnapshot* snapshot = nullptr;
  /// Route scans around quarantined pages (counted in stats->scan)
  /// instead of failing: set when the caller can see
  /// SearchStats::partial.
  bool allow_partial = false;
  /// Fan-out width after admission clamping; 0 or 1 is serial.
  size_t num_threads = 0;
  /// The search's own report (scan counters, queries issued).
  SearchStats* stats = nullptr;

  /// Sequential-scan options reading the snapshot under the context.
  SeqScanOptions scan_options() const {
    SeqScanOptions options;
    options.context = ctx;
    options.snapshot = snapshot;
    options.skip_quarantined = allow_partial;
    return options;
  }
  /// An index-scan spec reading the snapshot under the context; the
  /// caller fills in the index and key bounds.
  IndexScanSpec index_spec() const {
    IndexScanSpec spec;
    spec.context = ctx;
    spec.snapshot = snapshot;
    spec.skip_quarantined = allow_partial;
    return spec;
  }
};

/// The row callback a search collects through: charges the search's
/// memory budget for one `Hit` (a breach aborts this scan and, through
/// the shared budget, every sibling) and appends `decode(record)`.
template <typename Hit, typename Decode>
RowCallback CollectInto(MemoryBudget* budget, std::vector<Hit>* out,
                        Decode decode) {
  return [budget, out, decode](const char* record, RecordId) -> Status {
    if (budget != nullptr && !budget->Charge(sizeof(Hit))) {
      return budget->Exceeded();
    }
    out->push_back(decode(record));
    return Status::OK();
  };
}

/// Any-of sequential scan of `table` under `predicates` (see SeqScan),
/// split by heap page into `partitions` concurrent runs; 0 or 1 is one
/// SeqScan on the caller. Each partition collects into a private vector
/// (the first straight into `out`), and the rest are appended in
/// partition order — also on failure, so a budget-truncated search
/// keeps what the partitions gathered before the breach.
template <typename Hit, typename Decode>
Status PartitionedScan(const Table& table,
                       std::span<const Predicate> predicates,
                       const SearchScope& scope, size_t partitions,
                       const Decode& decode, std::vector<Hit>* out,
                       ScanStats* stats) {
  partitions = std::max<size_t>(partitions, 1);
  std::vector<std::vector<Hit>> rest(partitions - 1);
  Status status = ParallelSeqScan(
      table, predicates, partitions,
      [&](size_t p) {
        return CollectInto(scope.ctx->budget, p == 0 ? out : &rest[p - 1],
                           decode);
      },
      stats, scope.scan_options());
  for (const std::vector<Hit>& part : rest) {
    out->insert(out->end(), part.begin(), part.end());
  }
  return status;
}

class FeatureStore {
 public:
  /// The engine's half of ingest and resume. The callbacks run during
  /// Open, on close, or under the shell's ingest lock.
  struct Engine {
    /// Catalog meta key and magic of the engine's ingest-state blob.
    const char* state_key = nullptr;
    uint32_t state_magic = 0;
    /// Turns one observation into rows (segmenter -> extractor, or the
    /// pair window). InvalidArgument means a stale time stamp was
    /// rejected with nothing applied.
    std::function<Status(double t, double v)> apply;
    /// Emits buffered state at a flush; null when nothing is buffered.
    std::function<Status()> flush;
    /// Writes the resume state that follows the blob's magic and
    /// version, including the lifetime observation count.
    std::function<void(uint64_t observations, ByteWriter* w)> save_state;
    /// Reads it back on Open, adopting persisted build parameters; the
    /// store fails the open with Corruption when bytes are left over.
    std::function<Status(ByteReader* r, uint64_t* observations)>
        restore_state;
  };

  FeatureStore(const AdmissionOptions& admission, Engine engine);

  /// An opened store saves its ingest state before the database
  /// checkpoints itself on close.
  ~FeatureStore();

  FeatureStore(const FeatureStore&) = delete;
  FeatureStore& operator=(const FeatureStore&) = delete;

  /// Opens (or, with `create_if_missing`, creates) the database at
  /// `path`, restores the ingest state, runs `lay_out` (the engine's
  /// tables and pipeline), then replays the WAL's recovered observation
  /// backlog through `apply`/`flush`. A store resumes from exactly two
  /// states: fresh (no blob, no rows) or its blob; rows without a blob
  /// fail with Corruption. On any failure the database handle is
  /// abandoned, so the store's files stay as they were.
  Status Open(const std::string& path, const StoreOptions& options,
              bool create_if_missing, const std::function<Status()>& lay_out);

  /// The append path: fails fast on a degraded store, logs the
  /// observation before `apply` touches any page (a log failure is
  /// returned and nothing is applied), and notes storage failures (no
  /// space flips degraded read-only mode).
  Status Append(double t, double v);

  /// The flush path: flush marker, `flush`, then in WAL mode saves the
  /// ingest state and closes the group-commit window (acknowledged
  /// means durable), auto-checkpointing a grown log.
  Status Flush();

  /// The governed search shell. Validates (T, V) for `kind` against the
  /// store's window, admits the query, builds its context and budget,
  /// freezes a snapshot on an append boundary, then calls `run` (the
  /// engine's range queries, collecting raw matches) and, unless `run`
  /// failed, `finish` (which dedupes or sorts them and returns how many
  /// it kept). A budget breach keeps the partial result as `truncated`
  /// when `stats` can say so and fails otherwise; every outcome lands in
  /// the governance counters.
  Status Search(SearchKind kind, double T, double V, double window_s,
                const SearchOptions& options, SearchStats* stats,
                const std::function<Status(const SearchScope&)>& run,
                const std::function<Result<uint64_t>()>& finish);

  /// Builds any missing zone maps of `tables` (crash-recovered tables
  /// rebuild theirs on first search); must run before a search fans
  /// out to worker threads.
  Status EnsureZoneMaps(const std::vector<Table*>& tables);

  /// Each saves the ingest state, then checkpoints, compacts into a
  /// fresh file (Database::CompactInto), salvages into a fresh file
  /// (Database::Repair), or checkpoints and evicts the buffer pool.
  Status Checkpoint();
  Status Compact(const std::string& destination_path);
  Status Repair(const std::string& destination_path, RepairReport* report);
  Status DropCaches();

  Database* db() const { return db_.get(); }
  AdmissionController* admission() { return &admission_; }
  uint64_t num_observations() const { return observations_; }

  /// Serializes writers (appends, flushes, maintenance) against each
  /// other and against snapshot creation, so searches run concurrently
  /// with ingest. Engines take it for lazily built state that must be a
  /// consistent cut against appends; it precedes any engine mutex.
  std::mutex& ingest_mu() { return ingest_mu_; }

 private:
  /// Frames the engine's state into the ingest-state blob.
  void SaveState();
  Status RestoreState();
  Status DrainRecoveredOps();

  Engine engine_;
  std::unique_ptr<Database> db_;
  AdmissionController admission_;
  std::mutex ingest_mu_;
  uint64_t observations_ = 0;
  /// Set only when Open fully succeeded; only then does the destructor
  /// save state, so a failed open never overwrites the persisted resume
  /// point.
  bool opened_ = false;
};

}  // namespace segdiff

#endif  // SEGDIFF_SEGDIFF_FEATURE_STORE_H_
