// Access-path executors: sequential scan (serial, or partitioned into
// concurrent runs through ParallelFor) and index range scan.
//
// SeqScan and every ParallelSeqScan partition run one scan body: a run
// of columnar segments, then a heap walk (the whole page chain, or a
// partition's slice of it). Heap pages and decoded column batches reach
// their selection bitmaps through the same compare kernels
// (query/scan_kernel.h), and the body reports its ScanStats whether the
// scan succeeds or fails; IndexScan does the same. SeqScan is the one
// full-table read: searches, SQL, compaction, repair, DELETE, the
// segment directory and `verify` all scan through it.

#ifndef SEGDIFF_QUERY_EXECUTOR_H_
#define SEGDIFF_QUERY_EXECUTOR_H_

#include <functional>
#include <span>
#include <vector>

#include "common/governance.h"
#include "common/result.h"
#include "index/bplus_tree.h"
#include "query/predicate.h"
#include "storage/table.h"

namespace segdiff {

class DatabaseSnapshot;

/// Execution counters, reported by both executors. Columnar segments
/// count under the same fields (a pruned segment adds its page span to
/// pages_pruned and its rows to rows_pruned), so row-format and
/// columnar scans of the same data report identical totals.
struct ScanStats {
  uint64_t rows_scanned = 0;          ///< records examined (seq scan)
  uint64_t rows_pruned = 0;           ///< records skipped via zone stats
  uint64_t pages_scanned = 0;         ///< pages evaluated (seq scan)
  uint64_t pages_pruned = 0;          ///< pages skipped via zone stats
  uint64_t index_entries_scanned = 0; ///< index keys examined (index scan)
  uint64_t heap_fetches = 0;          ///< random heap reads (index scan)
  /// Records emitted. An any-of scan counts each selected record once,
  /// however many of its predicates match it.
  uint64_t rows_matched = 0;
  /// Corrupt pages routed around (SeqScanOptions::skip_quarantined):
  /// the result is PARTIAL whenever these are non-zero — callers must
  /// surface that, never silently return the subset.
  uint64_t pages_quarantined = 0;
  uint64_t rows_quarantined = 0;  ///< records lost to quarantined ranges

  void Add(const ScanStats& other) {
    rows_scanned += other.rows_scanned;
    rows_pruned += other.rows_pruned;
    pages_scanned += other.pages_scanned;
    pages_pruned += other.pages_pruned;
    index_entries_scanned += other.index_entries_scanned;
    heap_fetches += other.heap_fetches;
    rows_matched += other.rows_matched;
    pages_quarantined += other.pages_quarantined;
    rows_quarantined += other.rows_quarantined;
  }
};

/// Receives each matching record. A null callback turns the scan into a
/// count-only scan (stats still fully populated); over columnar
/// segments this is the fastest path — only the predicate's columns are
/// decoded and matches are popcounted straight off the selection
/// bitmap, never materializing a row.
using RowCallback = std::function<Status(const char* record, RecordId id)>;

/// Sequential-scan tuning knobs. The defaults are the fast path; the
/// flags exist so benchmarks and differential tests can ablate each
/// layer against the row-at-a-time baseline.
struct SeqScanOptions {
  /// Evaluate pages with the batched selection-bitmap kernel instead of
  /// per-row Predicate::Matches.
  bool batch = true;
  /// Skip pages whose zone-map ranges cannot satisfy the predicate's
  /// column conditions (only when the table has a zone map). Pruned
  /// pages are still fetched — and checksum-verified — by the buffer
  /// pool; pruning saves the decode and predicate work, not the IO.
  bool prune = true;
  /// Governance check point (non-owning; may be null = ungoverned). The
  /// scan checks it once per heap page and every
  /// kGovernanceCheckInterval emitted rows inside the residual loop, so
  /// a cancel/deadline stops the scan within one page of work; partial
  /// state (page pins, partition sinks) unwinds through the Status path.
  const QueryContext* context = nullptr;
  /// Point-in-time view to scan (non-owning; must outlive the scan).
  /// Null scans the live table. With a snapshot, the heap walk, the
  /// page bytes, and the zone map all come from the frozen view, so a
  /// scan concurrent with ingest sees exactly the rows present at
  /// Database::CreateSnapshot() — columnar segments are immutable and
  /// are read directly either way.
  const DatabaseSnapshot* snapshot = nullptr;
  /// Degraded-store mode: route around corrupt (quarantined) heap pages
  /// and columnar segments instead of failing the scan, counting them
  /// in ScanStats::pages_quarantined / rows_quarantined. The caller
  /// MUST check those counters and flag the result as partial; off (the
  /// default), corruption fails the scan loudly.
  bool skip_quarantined = false;
};

/// Full-table any-of scan: emits every record that at least one of
/// `predicates` matches, once, in scan order — the table's compressed
/// columnar segments first (vectorized decode feeding the
/// selection-bitmap kernels), then the row-format heap tail, insertion
/// order overall. Each page or decoded batch is read once for all
/// predicates: the kernels AND each predicate's conditions into its own
/// bitmap, the bitmaps are ORed, and a predicate's residual runs only
/// on its surviving rows that no other predicate already selected. A
/// page or segment is pruned only when its zone statistics rule out
/// every predicate; one that survives evaluates just the predicates it
/// can match. Every scanned row counts once in rows_scanned, every
/// emitted row once in rows_matched. An empty span matches nothing.
/// `stats` receives the counters also when the scan fails (a callback
/// error, a cancel), covering everything read up to the failure.
Status SeqScan(const Table& table, std::span<const Predicate> predicates,
               const RowCallback& callback, ScanStats* stats = nullptr,
               const SeqScanOptions& options = {});

/// The single-predicate scan: same rows, order and stats as the any-of
/// scan over a one-element span.
inline Status SeqScan(const Table& table, const Predicate& predicate,
                      const RowCallback& callback, ScanStats* stats = nullptr,
                      const SeqScanOptions& options = {}) {
  return SeqScan(table, std::span<const Predicate>(&predicate, 1), callback,
                 stats, options);
}

/// Returns the per-partition row callback for partition `i` of a
/// parallel scan. Each partition's callback runs on exactly one worker
/// thread, so a factory handing out partition-private sinks (e.g. one
/// result vector per partition, concatenated afterwards) needs no
/// locking.
using PartitionSinkFactory = std::function<RowCallback(size_t partition)>;

/// Partitioned full-table any-of scan (see SeqScan): splits the table's
/// work units — columnar segments (weighted by their page span)
/// followed by heap pages (weight 1) — into `num_partitions` contiguous
/// runs executed concurrently, one ParallelFor iteration each at width
/// `num_partitions` (0 or 1 is one SeqScan on the calling thread). Rows
/// are visited exactly once overall; per-partition ScanStats are merged
/// into `stats` in partition order, so totals equal the serial
/// SeqScan's — also on failure, when every partition that ran adds what
/// it read (one the failure left unstarted adds nothing).
Status ParallelSeqScan(const Table& table,
                       std::span<const Predicate> predicates,
                       size_t num_partitions,
                       const PartitionSinkFactory& make_sink,
                       ScanStats* stats = nullptr,
                       const SeqScanOptions& options = {});

/// The single-predicate partitioned scan (a one-element span).
inline Status ParallelSeqScan(const Table& table, const Predicate& predicate,
                              size_t num_partitions,
                              const PartitionSinkFactory& make_sink,
                              ScanStats* stats = nullptr,
                              const SeqScanOptions& options = {}) {
  return ParallelSeqScan(table, std::span<const Predicate>(&predicate, 1),
                         num_partitions, make_sink, stats, options);
}

/// Range scan over a B+-tree index. Starts at the first key >= `lower`,
/// advances while `key_continue(key)` holds, and for each key passing
/// `key_filter` fetches the heap record, applies `residual`, and emits.
/// MySQL-style secondary-index access: every candidate costs one heap
/// fetch, which is why dense queries favour the sequential scan
/// (paper Figures 10-11).
struct IndexScanSpec {
  const BPlusTree* index = nullptr;
  IndexKey lower;
  std::function<bool(const IndexKey&)> key_continue;  ///< stop when false
  std::function<bool(const IndexKey&)> key_filter;    ///< skip when false
  /// Governance check point (may be null), consulted every
  /// kGovernanceCheckInterval index entries during the range walk.
  const QueryContext* context = nullptr;
  /// Point-in-time view (see SeqScanOptions::snapshot): the B+-tree
  /// descent and the heap fetches both read through the snapshot.
  const DatabaseSnapshot* snapshot = nullptr;
  /// Route around candidates whose heap fetch hits a corrupt page
  /// (counted in ScanStats::rows_quarantined) instead of failing; see
  /// SeqScanOptions::skip_quarantined for the caller's obligations.
  bool skip_quarantined = false;
};

/// `stats` receives the counters also when the walk fails (a callback
/// error, a cancel, a fetch error), covering everything read up to the
/// failure.
Status IndexScan(const Table& table, const IndexScanSpec& spec,
                 const Predicate& residual, const RowCallback& callback,
                 ScanStats* stats = nullptr);

}  // namespace segdiff

#endif  // SEGDIFF_QUERY_EXECUTOR_H_
