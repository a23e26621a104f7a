// Selection-bitmap compare kernels and zone-map pruning tests.
//
// Every batched scan reaches its selection bitmap the same way, whether
// it reads a heap page or a compressed columnar segment: each column a
// condition references is laid out as contiguous doubles — gathered
// from the page's records (GatherColumn) or decoded from the segment
// (ColumnDecoder) — and the condition ANDs a branch-free compare loop
// over those values into the bitmap. One compare family serves both
// formats, in three variants sharing one signature: a portable scalar
// loop (auto-vectorizable), an SSE2 loop (x86-64 baseline), and an AVX2
// loop compiled with a target attribute and selected at runtime via CPU
// detection, following the crc32c hardware/software dispatch pattern.
// The same choice picks how cursors decode packed columns: the AVX2
// variant with the AVX2 unpack, the others with the scalar loop.
//
// Semantics match EvalCondition exactly: all comparisons are ordered,
// so a NaN cell never matches. Page zones and segment zones prune
// through one bounds test with the same NaN rules.

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

/// Copies column `column` of `count` fixed-width records starting at
/// `records` into the contiguous buffer `vals` — the heap page's
/// counterpart of a columnar decode. `count` must not exceed
/// kMaxBatchRows and the column must lie within the record.
void GatherColumn(const char* records, size_t record_bytes, size_t count,
                  size_t column, double* vals);

/// Sets the low `count` bits of `bitmap` (ceil(count/64) words); bits at
/// and above `count` stay zero so callers can walk whole words.
void InitSelectionBitmap(size_t count, uint64_t* bitmap);

/// ANDs `bitmap` with `vals[i] op bound` over `count` contiguous values
/// (a gathered heap column or a decoded column batch). Comparisons are
/// ordered: NaN never matches.
using ColumnCompareFn = void (*)(const double* vals, size_t count, CmpOp op,
                                 double bound, uint64_t* bitmap);

/// The variant chosen for this process: the widest the CPU supports,
/// overridable with SEGDIFF_SCAN_KERNEL=scalar|sse2|avx2 (unsupported
/// requests fall back to the widest supported variant).
ColumnCompareFn ActiveColumnCompare();

/// Name of the variant ActiveColumnCompare() returns ("scalar", "sse2",
/// "avx2") — for --stats output and bench reports.
const char* ActiveScanKernelName();

/// The packed-column decoder that goes with the active compare variant:
/// Avx2PackedDecode() beside the AVX2 compare, null (the cursor's scalar
/// loop) beside the scalar and SSE2 ones.
PackedDecodeFn ActivePackedDecode();

/// The individual variants, exposed for differential tests and benches.
/// Sse2/Avx2 are null off x86-64 (and Avx2 may be unusable even where
/// non-null; callers outside tests should use ActiveColumnCompare).
ColumnCompareFn ScalarColumnCompare();
ColumnCompareFn Sse2ColumnCompare();
ColumnCompareFn Avx2ColumnCompare();

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
static_assert(kMaxBatchRows <= kColumnBatchRows);

/// One column's values for one batch, 64-byte aligned for the compare
/// loops: a decoded columnar batch, or a heap page's gathered column
/// (a page holds at most kMaxBatchRows records).
struct alignas(64) ColumnBatch {
  double vals[kColumnBatchRows];
};

/// Segment-level pruning test over the directory's zone statistics —
/// the same bounds test as ZoneCanMatch, so the same NaN rules.
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
/// only the requested columns, with ActivePackedDecode(), into
/// 64-byte-aligned buffers that feed ColumnCompareFn (and, for
/// materialization, row reconstruction).
class ColumnDecoder {
 public:
  /// `handle` must outlive the decoder. `columns` are table column
  /// indices; payloads for exactly these columns are assembled.
  static Result<ColumnDecoder> Create(ColumnSegmentHandle* handle,
                                      const std::vector<size_t>& columns);

  /// Decodes the next batch of every requested column; returns the batch
  /// row count, 0 when the segment is exhausted. Corruption, naming the
  /// segment's first page, when a column's bits do not decode.
  Result<size_t> NextBatch();

  /// Row index (within the segment) of the current batch's first row.
  size_t batch_start() const { return batch_start_; }

  /// The current batch of table column `col` (64-byte aligned). `col`
  /// must be one of the requested columns.
  const double* column(size_t col) const {
    return buffers_[slot_of_[col]].vals;
  }

 private:
  ColumnDecoder() = default;

  ColumnSegmentHandle* handle_ = nullptr;
  std::vector<size_t> columns_;
  std::vector<ColumnCursor> cursors_;
  std::vector<ColumnBatch> buffers_;
  uint8_t slot_of_[ZoneMap::kMaxColumns] = {};
  size_t next_row_ = 0;
  size_t batch_start_ = 0;
};

}  // namespace segdiff

#endif  // SEGDIFF_QUERY_SCAN_KERNEL_H_
