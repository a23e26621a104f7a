// Batched predicate kernels and zone-map pruning tests.
//
// The batched sequential scan evaluates one heap page at a time: each
// ColumnCondition is applied to the page's column values with a
// branch-free compare loop that ANDs a selection bitmap, and only rows
// whose bit survives reach the residual std::function / row callback.
// Three kernel variants share one signature — a portable scalar loop
// (auto-vectorizable), an SSE2 loop (x86-64 baseline), and an AVX2 loop
// compiled with a target attribute and selected at runtime via CPU
// detection, following the crc32c hardware/software dispatch pattern.
//
// Semantics match EvalCondition exactly: all comparisons are ordered,
// so a NaN cell never matches.

#ifndef SEGDIFF_QUERY_SCAN_KERNEL_H_
#define SEGDIFF_QUERY_SCAN_KERNEL_H_

#include <cstddef>
#include <cstdint>

#include "common/result.h"
#include "query/predicate.h"
#include "storage/column_page.h"
#include "storage/heap_file.h"
#include "storage/page.h"
#include "storage/zone_map.h"

namespace segdiff {

/// Most records one heap page can hold (the 1-column case); batch
/// buffers are sized for it so any page fits one batch.
inline constexpr size_t kMaxBatchRows =
    (kPageCapacity - HeapFile::kHeaderBytes) / 8;
inline constexpr size_t kBatchBitmapWords = (kMaxBatchRows + 63) / 64;

/// Fills `bitmap` (ceil(count/64) words; bit i = record i matches every
/// condition) for `count` fixed-width records starting at `records`.
/// Bits at and above `count` are zero. `count` must not exceed
/// kMaxBatchRows and every condition's column must lie within the
/// record.
using ScanKernelFn = void (*)(const char* records, size_t record_bytes,
                              size_t count, const ColumnCondition* conditions,
                              size_t num_conditions, uint64_t* bitmap);

/// The kernel chosen for this process: the widest variant the CPU
/// supports, overridable with SEGDIFF_SCAN_KERNEL=scalar|sse2|avx2
/// (unsupported requests fall back to the widest supported variant).
ScanKernelFn ActiveScanKernel();

/// Name of the variant ActiveScanKernel() returns ("scalar", "sse2",
/// "avx2") — for --stats output and bench reports.
const char* ActiveScanKernelName();

/// The individual variants, exposed for differential tests. Sse2/Avx2
/// are null function pointers off x86-64 (and Avx2 may be unusable even
/// where non-null; callers outside tests should use ActiveScanKernel).
ScanKernelFn ScalarScanKernel();
ScanKernelFn Sse2ScanKernel();
ScanKernelFn Avx2ScanKernel();

/// True when some value inside zone `zone_idx` could satisfy every
/// condition. Sound with NaN-bearing pages: zone bounds exclude NaN
/// cells, and a NaN cell never matches a condition, so bounds over the
/// non-NaN values are sufficient evidence to prune. A bound that is
/// itself NaN (polluted stats) disables pruning on that column.
bool ZoneCanMatch(const ZoneMap& zone_map, size_t zone_idx,
                  const std::vector<ColumnCondition>& conditions);

/// Page-level selectivity survey: how much of the table survives
/// pruning under `conditions`. Feeds the planner's cost model.
struct ZoneSurvey {
  uint64_t zones_total = 0;
  uint64_t zones_surviving = 0;
  uint64_t rows_total = 0;
  uint64_t rows_surviving = 0;
};
ZoneSurvey SurveyZones(const ZoneMap& zone_map,
                       const std::vector<ColumnCondition>& conditions);

// ---------------------------------------------------------------------
// Columnar scan path: decode one column batch at a time and run the
// same selection-bitmap comparisons over the contiguous values.

/// Rows per decode batch. A multiple of 64 (whole bitmap words) that
/// fits the kBatchBitmapWords bitmap buffers the evaluators already
/// carry, and divides ColumnStore::kMaxSegmentRows so only a segment's
/// final batch is short.
inline constexpr size_t kColumnBatchRows = 1024;
static_assert(kColumnBatchRows % 64 == 0);
static_assert(kColumnBatchRows / 64 <= kBatchBitmapWords);
static_assert(ColumnStore::kMaxSegmentRows % kColumnBatchRows == 0);

/// Sets the low `count` bits of `bitmap` (ceil(count/64) words); bits at
/// and above `count` stay zero so callers can walk whole words.
void InitSelectionBitmap(size_t count, uint64_t* bitmap);

/// ANDs `bitmap` with `vals[i] op bound` over a contiguous column batch
/// — the columnar counterpart of ScanKernelFn, minus the gather (the
/// decoder already materialized the column). Comparisons are ordered:
/// NaN never matches.
using ColumnCompareFn = void (*)(const double* vals, size_t count, CmpOp op,
                                 double bound, uint64_t* bitmap);

/// Widest supported variant, honouring the same SEGDIFF_SCAN_KERNEL
/// override as ActiveScanKernel().
ColumnCompareFn ActiveColumnCompare();

/// The individual variants, exposed for differential tests (null off
/// x86-64 / without AVX2, like their ScanKernelFn counterparts).
ColumnCompareFn ScalarColumnCompare();
ColumnCompareFn Sse2ColumnCompare();
ColumnCompareFn Avx2ColumnCompare();

/// Segment-level pruning test over the directory's zone statistics —
/// the columnar counterpart of ZoneCanMatch, with identical NaN rules.
/// Pruned segments must still have their pages fetched (and therefore
/// checksum-verified); opening the segment handle does exactly that.
bool SegmentCanMatch(const ColumnSegmentInfo& info,
                     const std::vector<ColumnCondition>& conditions);

/// Selectivity survey over a table's columnar segments, from catalog
/// statistics alone (no IO) — the segment counterpart of SurveyZones,
/// reported by SQL EXPLAIN.
struct ColumnarSurvey {
  uint64_t segments_total = 0;
  uint64_t segments_surviving = 0;
  uint64_t rows_total = 0;
  uint64_t rows_surviving = 0;
  uint64_t pages_total = 0;
  uint64_t pages_surviving = 0;
};
ColumnarSurvey SurveyColumnarSegments(
    const ColumnStore& store, const std::vector<ColumnCondition>& conditions);

/// Streams one columnar segment in kColumnBatchRows batches, decoding
/// only the requested columns into 64-byte-aligned buffers that feed
/// ColumnCompareFn (and, for materialization, row reconstruction).
class ColumnDecoder {
 public:
  /// `handle` must outlive the decoder. `columns` are table column
  /// indices; payloads for exactly these columns are assembled.
  static Result<ColumnDecoder> Create(ColumnSegmentHandle* handle,
                                      const std::vector<size_t>& columns);

  /// Decodes the next batch of every requested column; returns the batch
  /// row count, 0 when the segment is exhausted.
  size_t NextBatch();

  /// Row index (within the segment) of the current batch's first row.
  size_t batch_start() const { return batch_start_; }

  /// The current batch of table column `col` (64-byte aligned). `col`
  /// must be one of the requested columns.
  const double* column(size_t col) const {
    return buffers_[slot_of_[col]].vals;
  }

 private:
  struct alignas(64) Batch {
    double vals[kColumnBatchRows];
  };

  ColumnDecoder() = default;

  ColumnSegmentHandle* handle_ = nullptr;
  std::vector<size_t> columns_;
  std::vector<ColumnCursor> cursors_;
  std::vector<Batch> buffers_;
  uint8_t slot_of_[ZoneMap::kMaxColumns] = {};
  size_t next_row_ = 0;
  size_t batch_start_ = 0;
};

}  // namespace segdiff

#endif  // SEGDIFF_QUERY_SCAN_KERNEL_H_
