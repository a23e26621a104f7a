#include "query/executor.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/coding.h"
#include "common/thread_pool.h"
#include "query/scan_kernel.h"
#include "storage/snapshot.h"

namespace segdiff {
namespace {

/// The zone map a scan should prune with: the frozen copy when reading
/// a snapshot (the live map keeps moving under concurrent ingest), the
/// table's live map otherwise.
const ZoneMap* ResolveZoneMap(const Table& table,
                              const SeqScanOptions& options) {
  if (options.snapshot != nullptr) {
    const TableSnapshotView* view = options.snapshot->TableView(table.name());
    return view != nullptr ? view->zone_map.get() : nullptr;
  }
  return table.zone_map();
}

/// Per-scan (per-partition, under ParallelSeqScan) evaluator for an
/// any-of scan: a row is selected when at least one predicate matches
/// it, and is emitted once, in scan order. Heap pages and decoded
/// column batches take the same two bodies. The batch body lays each
/// column a surviving predicate compares on out as contiguous doubles
/// (gathered from the page's records, or decoded), ANDs every
/// predicate's conditions into a selection bitmap with the one compare
/// kernel, and runs a predicate's residual only on its surviving rows
/// that no residual-free or earlier predicate already selected. The
/// row-at-a-time body is the reference it is tested against.
///
/// Both bodies walk identical pages and count identically, so serial,
/// parallel, batched, and row-at-a-time scans all agree on
/// rows_scanned + rows_pruned and pages_scanned + pages_pruned —
/// and the columnar segment path counts segment pages/rows under the
/// same fields, so totals also agree across storage formats.
class PageEvaluator {
 public:
  PageEvaluator(const Table& table, std::span<const Predicate> predicates,
                const SeqScanOptions& options, const RowCallback& callback)
      : predicates_(predicates),
        callback_(callback),
        record_bytes_(table.schema().RowBytes()),
        batch_(options.batch),
        skip_quarantined_(options.skip_quarantined),
        prune_(options.prune &&
               std::any_of(predicates.begin(), predicates.end(),
                           [](const Predicate& p) {
                             return !p.conditions().empty();
                           })),
        compare_(ActiveColumnCompare()),
        zone_map_(prune_ ? ResolveZoneMap(table, options) : nullptr),
        ctx_(options.context),
        residual_bits_(predicates.size() * kBatchBitmapWords) {
    active_.reserve(predicates.size());
    residual_preds_.reserve(predicates.size());
    // One gather buffer per column some condition compares on.
    for (const Predicate& predicate : predicates) {
      for (const ColumnCondition& cond : predicate.conditions()) {
        if (cond.column >= gather_slot_.size()) {
          gather_slot_.resize(cond.column + 1, kNoSlot);
        }
        if (gather_slot_[cond.column] == kNoSlot) {
          gather_slot_[cond.column] = gathered_at_.size();
          gathered_at_.push_back(0);
        }
      }
    }
    gathered_ = std::make_unique_for_overwrite<ColumnBatch[]>(
        gathered_at_.size());
  }

  /// Evaluates one heap page.
  Status Evaluate(PageId page, const char* records, uint16_t count) {
    SEGDIFF_RETURN_IF_ERROR(CheckGovernance(1));
    size_t zone = ZoneMap::kNoZone;
    if (zone_map_ != nullptr) {
      zone = zone_map_->FindZone(page);
      // Prune only when the zone covers exactly the rows the page holds;
      // a mismatch (e.g. a crash persisted appends the checkpointed map
      // never saw) falls back to evaluating the whole page.
      if (zone != ZoneMap::kNoZone && zone_map_->zone(zone).rows != count) {
        zone = ZoneMap::kNoZone;
      }
    }
    Activate([&](const Predicate& p) {
      return zone == ZoneMap::kNoZone ||
             ZoneCanMatch(*zone_map_, zone, p.conditions());
    });
    if (zone != ZoneMap::kNoZone && active_.empty()) {
      ++stats_.pages_pruned;
      stats_.rows_pruned += count;
      return Status::OK();
    }
    ++stats_.pages_scanned;
    stats_.rows_scanned += count;
    auto row_at = [&](size_t slot) { return records + slot * record_bytes_; };
    auto id_at = [page](size_t slot) {
      return RecordId{page, static_cast<uint32_t>(slot)};
    };
    if (!batch_) {
      return EvaluateRows(count, row_at, id_at);
    }
    // Each referenced column is gathered on its first use in this page,
    // so a page gathers only the columns its surviving predicates read.
    ++gather_epoch_;
    auto column_at = [&](size_t col) -> const double* {
      const size_t slot = gather_slot_[col];
      if (gathered_at_[slot] != gather_epoch_) {
        GatherColumn(records, record_bytes_, count, col, gathered_[slot].vals);
        gathered_at_[slot] = gather_epoch_;
      }
      return gathered_[slot].vals;
    };
    return EvaluateBatch(count, NeedRows(), column_at, row_at, id_at);
  }

  /// Evaluates one compressed columnar segment. The segment's pages are
  /// always fetched — and checksum-verified — by opening the handle,
  /// before any prune decision, matching the heap path's "pruning saves
  /// the decode, not the IO" contract (and keeping corruption detection
  /// in force for pruned segments).
  Status EvaluateSegment(const ColumnStore& store, size_t seg_idx) {
    const ColumnSegmentInfo& info = store.meta().segments[seg_idx];
    SEGDIFF_RETURN_IF_ERROR(CheckGovernance(info.pages));
    Result<ColumnSegmentHandle> opened = store.OpenSegment(seg_idx);
    if (!opened.ok()) {
      if (skip_quarantined_ && opened.status().IsCorruption()) {
        // Opening verified (and quarantined) the segment's pages; the
        // whole segment is routed around and the result flagged partial.
        NoteQuarantined(info.pages, info.rows);
        return Status::OK();
      }
      return opened.status();
    }
    ColumnSegmentHandle handle = std::move(opened).value();
    Activate([&](const Predicate& p) {
      return !prune_ || SegmentCanMatch(info, p.conditions());
    });
    if (prune_ && active_.empty()) {
      stats_.pages_pruned += info.pages;
      stats_.rows_pruned += info.rows;
      return Status::OK();
    }
    stats_.pages_scanned += info.pages;
    stats_.rows_scanned += info.rows;
    const size_t ncols = handle.num_columns();
    // Rows must be materialized when something consumes whole records
    // (callback or residual) or in the row-at-a-time mode; count-only
    // scans decode just the predicates' columns.
    const bool need_rows = !batch_ || NeedRows();
    std::vector<size_t> wanted;
    if (need_rows) {
      for (size_t c = 0; c < ncols; ++c) {
        wanted.push_back(c);
      }
    } else {
      for (const size_t i : active_) {
        for (const ColumnCondition& cond : predicates_[i].conditions()) {
          if (std::find(wanted.begin(), wanted.end(), cond.column) ==
              wanted.end()) {
            wanted.push_back(cond.column);
          }
        }
      }
    }
    SEGDIFF_ASSIGN_OR_RETURN(ColumnDecoder decoder,
                             ColumnDecoder::Create(&handle, wanted));
    if (row_buf_.size() < record_bytes_) {
      row_buf_.resize(record_bytes_);
    }
    // Rebuilds the encoded record for batch row i from the decoded
    // columns (bit-exact: the cursors reproduce the stored bit patterns).
    auto row_at = [&](size_t i) {
      for (size_t c = 0; c < ncols; ++c) {
        EncodeDouble(row_buf_.data() + 8 * c, decoder.column(c)[i]);
      }
      return static_cast<const char*>(row_buf_.data());
    };
    auto id_at = [&](size_t i) {
      return RecordId{info.first_page,
                      static_cast<uint32_t>(decoder.batch_start() + i)};
    };
    auto column_at = [&](size_t col) { return decoder.column(col); };
    while (true) {
      SEGDIFF_ASSIGN_OR_RETURN(const size_t count, decoder.NextBatch());
      if (count == 0) {
        return Status::OK();
      }
      SEGDIFF_RETURN_IF_ERROR(
          batch_ ? EvaluateBatch(count, need_rows, column_at, row_at, id_at)
                 : EvaluateRows(count, row_at, id_at));
    }
  }

  const ScanStats& stats() const { return stats_; }

  /// Records a routed-around corrupt range (the heap skipper and the
  /// segment path above both funnel here, so one stats object carries
  /// the partial-result evidence).
  void NoteQuarantined(uint64_t pages, uint64_t rows) {
    stats_.pages_quarantined += pages;
    stats_.rows_quarantined += rows;
  }

  /// The heap-page skipper for this scan, or nullptr when quarantine
  /// routing is off. Valid as long as the evaluator lives.
  const CorruptPageSkipper* heap_skipper() {
    if (!skip_quarantined_) {
      return nullptr;
    }
    if (!skipper_.on_skip) {
      skipper_.on_skip = [this](PageId page, uint64_t lost) {
        NoteQuarantined(page != kInvalidPageId ? 1 : 0, lost);
      };
    }
    return &skipper_;
  }

 private:
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  /// Page-granular cancellation point, ahead of `pages` pages of work (a
  /// heap page, or a segment's page span): the scan stops within one
  /// page of a cancel, and the non-OK return unwinds the pin held by the
  /// page-data walk. The deadline's clock read is amortized over
  /// kDeadlineCheckPageInterval pages (first page included, so an
  /// already-expired deadline fails before any work) — a relaxed atomic
  /// load per page is all the always-on cost.
  Status CheckGovernance(uint64_t pages) {
    if (ctx_ == nullptr) {
      return Status::OK();
    }
    if (ctx_->cancel.cancelled()) {
      return Status::Cancelled("query cancelled by caller");
    }
    pages_since_deadline_check_ += pages;
    if (pages_since_deadline_check_ >= kDeadlineCheckPageInterval) {
      pages_since_deadline_check_ = 0;
      if (ctx_->deadline.expired()) {
        return Status::DeadlineExceeded("query deadline exceeded");
      }
    }
    return Status::OK();
  }

  /// Makes the predicates `can_match` admits the only ones the current
  /// page or segment evaluates (its zone statistics rule out the rest).
  template <typename CanMatch>
  void Activate(CanMatch can_match) {
    active_.clear();
    for (size_t i = 0; i < predicates_.size(); ++i) {
      if (can_match(predicates_[i])) {
        active_.push_back(i);
      }
    }
  }

  /// True when the batch body must hand out whole records: a callback
  /// consumes them, or an active predicate has a residual.
  bool NeedRows() const {
    return static_cast<bool>(callback_) ||
           std::any_of(active_.begin(), active_.end(), [this](size_t i) {
             return static_cast<bool>(predicates_[i].residual());
           });
  }

  /// The row-at-a-time reference body over `count` rows: each active
  /// predicate's Matches, in order, until one accepts. `row_at(i)`
  /// yields row i's encoded record, `id_at(i)` its id.
  template <typename RowAt, typename IdAt>
  Status EvaluateRows(size_t count, RowAt row_at, IdAt id_at) {
    for (size_t i = 0; i < count; ++i) {
      const char* record = row_at(i);
      if (std::any_of(active_.begin(), active_.end(), [&](size_t p) {
            return predicates_[p].Matches(record);
          })) {
        SEGDIFF_RETURN_IF_ERROR(Emit(record, id_at(i)));
      }
    }
    return Status::OK();
  }

  /// The batch body over `count` rows. `column_at(col)` yields the
  /// batch's values of table column `col`. Rows a residual-free
  /// predicate selects are ORed into sure_; each residual predicate
  /// keeps its own survivors. Without `need_rows` (count-only, no
  /// residual) the selection is just popcounted; otherwise each row is
  /// emitted once, in batch order: rows in sure_ directly, any other
  /// candidate only when a residual predicate whose conditions held
  /// accepts it (residuals run in predicate order and stop at the first
  /// acceptance).
  template <typename ColumnAt, typename RowAt, typename IdAt>
  Status EvaluateBatch(size_t count, bool need_rows, ColumnAt column_at,
                       RowAt row_at, IdAt id_at) {
    const size_t words = (count + 63) / 64;
    std::fill_n(sure_, words, uint64_t{0});
    residual_preds_.clear();
    for (const size_t i : active_) {
      const Predicate& predicate = predicates_[i];
      uint64_t* bitmap = predicate.residual()
                             ? ResidualBits(residual_preds_.size())
                             : scratch_;
      InitSelectionBitmap(count, bitmap);
      for (const ColumnCondition& cond : predicate.conditions()) {
        compare_(column_at(cond.column), count, cond.op, cond.value, bitmap);
      }
      if (predicate.residual()) {
        residual_preds_.push_back(&predicate);
        continue;
      }
      for (size_t w = 0; w < words; ++w) {
        sure_[w] |= scratch_[w];
      }
    }
    if (!need_rows) {
      for (size_t w = 0; w < words; ++w) {
        stats_.rows_matched += static_cast<uint64_t>(std::popcount(sure_[w]));
      }
      return Status::OK();
    }
    const size_t residuals = residual_preds_.size();
    for (size_t w = 0; w < words; ++w) {
      uint64_t candidates = sure_[w];
      for (size_t r = 0; r < residuals; ++r) {
        candidates |= ResidualBits(r)[w];
      }
      while (candidates != 0) {
        const int bit = std::countr_zero(candidates);
        candidates &= candidates - 1;
        const uint64_t mask = uint64_t{1} << bit;
        const size_t i = w * 64 + static_cast<size_t>(bit);
        const char* record = row_at(i);
        bool selected = (sure_[w] & mask) != 0;
        for (size_t r = 0; !selected && r < residuals; ++r) {
          selected = (ResidualBits(r)[w] & mask) != 0 &&
                     residual_preds_[r]->residual()(record);
        }
        if (selected) {
          SEGDIFF_RETURN_IF_ERROR(Emit(record, id_at(i)));
        }
      }
    }
    return Status::OK();
  }

  uint64_t* ResidualBits(size_t r) {
    return residual_bits_.data() + r * kBatchBitmapWords;
  }

  /// Counts and emits one selected row. Also a check point inside the
  /// emit loop, for pages where the row callback itself is the
  /// expensive part (corner-query overlap tests): every
  /// kGovernanceCheckInterval emitted rows.
  Status Emit(const char* record, RecordId id) {
    ++stats_.rows_matched;
    if (callback_) {
      SEGDIFF_RETURN_IF_ERROR(callback_(record, id));
    }
    if (ctx_ != nullptr && ++emits_since_check_ >= kGovernanceCheckInterval) {
      emits_since_check_ = 0;
      return ctx_->Check();
    }
    return Status::OK();
  }

  const std::span<const Predicate> predicates_;
  const RowCallback& callback_;
  const size_t record_bytes_;
  const bool batch_;
  const bool skip_quarantined_;
  CorruptPageSkipper skipper_;  ///< lazily armed by heap_skipper()
  const bool prune_;
  const ColumnCompareFn compare_;
  const ZoneMap* zone_map_;
  const QueryContext* ctx_;
  uint64_t emits_since_check_ = 0;
  // Starts at the interval so page 0 performs a deadline check.
  uint64_t pages_since_deadline_check_ = kDeadlineCheckPageInterval - 1;
  ScanStats stats_;
  std::vector<char> row_buf_;  ///< columnar row materialization scratch
  /// Indices of the predicates the current page or segment can match.
  std::vector<size_t> active_;
  /// Residual predicates of the current batch, in predicate order; the
  /// r-th one's condition survivors are ResidualBits(r).
  std::vector<const Predicate*> residual_preds_;
  std::vector<uint64_t> residual_bits_;
  uint64_t sure_[kBatchBitmapWords];     ///< rows selected outright
  uint64_t scratch_[kBatchBitmapWords];  ///< one predicate's conditions
  /// Heap-page gather buffers: gathered_[gather_slot_[col]] holds table
  /// column col of the page whose gather_epoch_ is in gathered_at_.
  std::vector<size_t> gather_slot_;
  std::vector<uint64_t> gathered_at_;
  std::unique_ptr<ColumnBatch[]> gathered_;
  uint64_t gather_epoch_ = 0;
};

/// One contiguous slice of a scan: a run of columnar segments, then a
/// heap walk — the whole page chain, or a run of its pages (segments
/// always precede the heap in scan order, so every contiguous slice has
/// this shape).
struct ScanPartition {
  size_t seg_begin = 0;
  size_t seg_end = 0;        ///< exclusive
  bool whole_chain = false;  ///< walk the chain itself, not `pages`
  std::vector<PageId> pages;
  size_t heap_first = 0;  ///< chain position of pages[0] (tail counts)
};

/// The one scan body, run by SeqScan and by every ParallelSeqScan
/// partition. It adds its counters to `*stats` whether it succeeds or
/// fails, so a failed scan still reports what it read and routed around.
Status RunPartition(const Table& table, std::span<const Predicate> predicates,
                    const SeqScanOptions& options, const RowCallback& callback,
                    const ScanPartition& part, ScanStats* stats) {
  PageEvaluator evaluator(table, predicates, options, callback);
  Status status = Status::OK();
  for (size_t s = part.seg_begin; s < part.seg_end && status.ok(); ++s) {
    status = evaluator.EvaluateSegment(*table.columnar(), s);
  }
  if (status.ok()) {
    const HeapFile::PageDataFn evaluate =
        [&evaluator](PageId page, const char* records, uint16_t count) {
          return evaluator.Evaluate(page, records, count);
        };
    status = part.whole_chain
                 ? table.ScanChain(evaluate, options.snapshot,
                                   evaluator.heap_skipper())
                 : table.ScanPageList(part.pages, part.heap_first, evaluate,
                                      options.snapshot,
                                      evaluator.heap_skipper());
  }
  if (stats != nullptr) {
    stats->Add(evaluator.stats());
  }
  return status;
}

/// The range walk behind IndexScan. It counts into `*local` as it
/// goes, so the caller reports what a failed, cancelled or truncated
/// walk read and routed around, as RunPartition does for scans.
Status RunIndexScan(const Table& table, const IndexScanSpec& spec,
                    const Predicate& residual, const RowCallback& callback,
                    ScanStats* local) {
  std::vector<char> record(table.schema().RowBytes());
  const PoolSnapshot* pool_snap =
      spec.snapshot != nullptr ? spec.snapshot->pool_snapshot() : nullptr;
  SEGDIFF_ASSIGN_OR_RETURN(BPlusTree::Iterator it,
                           spec.index->Seek(spec.lower, pool_snap));
  while (it.Valid()) {
    const IndexKey& key = it.key();
    ++local->index_entries_scanned;
    // Governance check amortised over the range walk; leaf pins are
    // RAII, so the early return releases the current leaf cleanly.
    if (spec.context != nullptr &&
        local->index_entries_scanned % kGovernanceCheckInterval == 1) {
      SEGDIFF_RETURN_IF_ERROR(spec.context->Check());
    }
    if (spec.key_continue && !spec.key_continue(key)) {
      break;
    }
    if (!spec.key_filter || spec.key_filter(key)) {
      ++local->heap_fetches;
      Status fetched = table.ReadRecord(RecordId::Unpack(key.rid),
                                        record.data(), spec.snapshot);
      if (!fetched.ok()) {
        if (spec.skip_quarantined && fetched.IsCorruption()) {
          // Candidate's page is quarantined: drop the row, flag partial.
          ++local->rows_quarantined;
          SEGDIFF_RETURN_IF_ERROR(it.Next());
          continue;
        }
        return fetched;
      }
      if (residual.Matches(record.data())) {
        ++local->rows_matched;
        SEGDIFF_RETURN_IF_ERROR(
            callback(record.data(), RecordId::Unpack(key.rid)));
      }
    }
    SEGDIFF_RETURN_IF_ERROR(it.Next());
  }
  return Status::OK();
}

}  // namespace

Status SeqScan(const Table& table, std::span<const Predicate> predicates,
               const RowCallback& callback, ScanStats* stats,
               const SeqScanOptions& options) {
  // Columnar segments hold the oldest rows; scanning them first keeps
  // the visit order identical to the row-format scan of the same data.
  ScanPartition whole;
  whole.seg_end =
      table.columnar() != nullptr ? table.columnar()->segment_count() : 0;
  whole.whole_chain = true;
  return RunPartition(table, predicates, options, callback, whole, stats);
}

Status ParallelSeqScan(const Table& table,
                       std::span<const Predicate> predicates,
                       size_t num_partitions,
                       const PartitionSinkFactory& make_sink,
                       ScanStats* stats, const SeqScanOptions& options) {
  if (num_partitions <= 1) {
    // Degenerate case: one partition is just a serial scan.
    return SeqScan(table, predicates, make_sink(0), stats, options);
  }
  // Chain resolution happens once, up front; with quarantine routing a
  // broken chain's unreachable remainder is accounted here (no
  // partition would ever visit those pages).
  ScanStats collect_stats;
  CorruptPageSkipper collect_skipper;
  collect_skipper.on_skip = [&](PageId page, uint64_t lost) {
    collect_stats.pages_quarantined += page != kInvalidPageId ? 1 : 0;
    collect_stats.rows_quarantined += lost;
  };
  Result<std::vector<PageId>> collected = table.HeapPageIds(
      options.snapshot, options.skip_quarantined ? &collect_skipper : nullptr);
  if (stats != nullptr) {
    stats->Add(collect_stats);
  }
  SEGDIFF_RETURN_IF_ERROR(collected.status());
  const std::vector<PageId>& pages = *collected;
  const ColumnStore* columnar = table.columnar();
  const size_t num_segments =
      columnar != nullptr ? columnar->segment_count() : 0;

  // Weighted work units in scan order: each segment counts its page
  // span, each heap page counts 1, so partitions balance by IO volume
  // rather than unit count. Runs stay contiguous to keep each worker's
  // reads sequential.
  const size_t num_units = num_segments + pages.size();
  uint64_t total_weight = pages.size();
  for (size_t s = 0; s < num_segments; ++s) {
    total_weight += std::max<uint32_t>(columnar->meta().segments[s].pages, 1);
  }
  num_partitions = std::min(num_partitions, std::max<size_t>(num_units, 1));
  std::vector<ScanPartition> partitions(num_partitions);
  {
    size_t p = 0;
    uint64_t taken = 0;
    // Greedy prefix split: move to the next partition once this one's
    // cumulative weight reaches its proportional share. A single heavy
    // unit can skip partitions, leaving them (correctly) empty.
    auto advance = [&](uint64_t weight, size_t next_seg) {
      taken += weight;
      while (p + 1 < num_partitions &&
             taken * num_partitions >= (p + 1) * total_weight) {
        ++p;
        partitions[p].seg_begin = partitions[p].seg_end = next_seg;
      }
    };
    for (size_t s = 0; s < num_segments; ++s) {
      partitions[p].seg_end = s + 1;
      advance(std::max<uint32_t>(columnar->meta().segments[s].pages, 1),
              s + 1);
    }
    for (size_t i = 0; i < pages.size(); ++i) {
      if (partitions[p].pages.empty()) {
        partitions[p].heap_first = i;
      }
      partitions[p].pages.push_back(pages[i]);
      advance(1, num_segments);
    }
  }
  std::vector<RowCallback> sinks(num_partitions);
  for (size_t p = 0; p < num_partitions; ++p) {
    sinks[p] = make_sink(p);
  }
  std::vector<ScanStats> partition_stats(num_partitions);
  const Status status = ParallelFor(
      num_partitions, num_partitions, options.context,
      [&](size_t p) -> Status {
        return RunPartition(table, predicates, options, sinks[p],
                            partitions[p], &partition_stats[p]);
      });
  // Merged whatever the outcome, in partition order, so totals equal
  // the serial scan's; a partition the failure left unclaimed adds
  // nothing.
  if (stats != nullptr) {
    for (const ScanStats& local : partition_stats) {
      stats->Add(local);
    }
  }
  return status;
}

Status IndexScan(const Table& table, const IndexScanSpec& spec,
                 const Predicate& residual, const RowCallback& callback,
                 ScanStats* stats) {
  if (spec.index == nullptr) {
    return Status::InvalidArgument("index scan without index");
  }
  ScanStats local;
  const Status status =
      RunIndexScan(table, spec, residual, callback, &local);
  if (stats != nullptr) {
    stats->Add(local);
  }
  return status;
}

}  // namespace segdiff
