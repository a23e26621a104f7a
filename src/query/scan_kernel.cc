#include "query/scan_kernel.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/coding.h"
#include "common/env.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>
#endif

namespace segdiff {
namespace {

template <CmpOp Op>
bool CmpScalar(double v, double bound) {
  if constexpr (Op == CmpOp::kLt) {
    return v < bound;
  } else if constexpr (Op == CmpOp::kLe) {
    return v <= bound;
  } else if constexpr (Op == CmpOp::kGt) {
    return v > bound;
  } else if constexpr (Op == CmpOp::kGe) {
    return v >= bound;
  } else {
    return v == bound;
  }
}

template <CmpOp Op>
void AndCompareScalar(const double* vals, size_t count, double bound,
                      uint64_t* bitmap) {
  for (size_t w = 0; w * 64 < count; ++w) {
    const size_t base = w * 64;
    const size_t limit = std::min<size_t>(64, count - base);
    uint64_t m = 0;
    for (size_t b = 0; b < limit; ++b) {
      m |= static_cast<uint64_t>(CmpScalar<Op>(vals[base + b], bound)) << b;
    }
    bitmap[w] &= m;
  }
}

void ColumnCompareScalar(const double* vals, size_t count, CmpOp op,
                         double bound, uint64_t* bitmap) {
  switch (op) {
    case CmpOp::kLt:
      AndCompareScalar<CmpOp::kLt>(vals, count, bound, bitmap);
      break;
    case CmpOp::kLe:
      AndCompareScalar<CmpOp::kLe>(vals, count, bound, bitmap);
      break;
    case CmpOp::kGt:
      AndCompareScalar<CmpOp::kGt>(vals, count, bound, bitmap);
      break;
    case CmpOp::kGe:
      AndCompareScalar<CmpOp::kGe>(vals, count, bound, bitmap);
      break;
    case CmpOp::kEq:
      AndCompareScalar<CmpOp::kEq>(vals, count, bound, bitmap);
      break;
  }
}

#if defined(__x86_64__) || defined(_M_X64)

// SSE2 is the x86-64 baseline: two doubles per compare, all ordered
// (NaN compares false, matching EvalCondition).
template <CmpOp Op>
__m128d Cmp128(__m128d a, __m128d b) {
  if constexpr (Op == CmpOp::kLt) {
    return _mm_cmplt_pd(a, b);
  } else if constexpr (Op == CmpOp::kLe) {
    return _mm_cmple_pd(a, b);
  } else if constexpr (Op == CmpOp::kGt) {
    return _mm_cmpgt_pd(a, b);
  } else if constexpr (Op == CmpOp::kGe) {
    return _mm_cmpge_pd(a, b);
  } else {
    return _mm_cmpeq_pd(a, b);
  }
}

template <CmpOp Op>
void AndCompareSse2(const double* vals, size_t count, double bound,
                    uint64_t* bitmap) {
  const __m128d vb = _mm_set1_pd(bound);
  for (size_t w = 0; w * 64 < count; ++w) {
    const size_t base = w * 64;
    const size_t limit = std::min<size_t>(64, count - base);
    uint64_t m = 0;
    size_t b = 0;
    for (; b + 2 <= limit; b += 2) {
      const __m128d va = _mm_loadu_pd(vals + base + b);
      m |= static_cast<uint64_t>(_mm_movemask_pd(Cmp128<Op>(va, vb))) << b;
    }
    for (; b < limit; ++b) {
      m |= static_cast<uint64_t>(CmpScalar<Op>(vals[base + b], bound)) << b;
    }
    bitmap[w] &= m;
  }
}

void ColumnCompareSse2(const double* vals, size_t count, CmpOp op,
                       double bound, uint64_t* bitmap) {
  switch (op) {
    case CmpOp::kLt:
      AndCompareSse2<CmpOp::kLt>(vals, count, bound, bitmap);
      break;
    case CmpOp::kLe:
      AndCompareSse2<CmpOp::kLe>(vals, count, bound, bitmap);
      break;
    case CmpOp::kGt:
      AndCompareSse2<CmpOp::kGt>(vals, count, bound, bitmap);
      break;
    case CmpOp::kGe:
      AndCompareSse2<CmpOp::kGe>(vals, count, bound, bitmap);
      break;
    case CmpOp::kEq:
      AndCompareSse2<CmpOp::kEq>(vals, count, bound, bitmap);
      break;
  }
}

#endif  // x86-64

struct KernelChoice {
  ColumnCompareFn fn;
  const char* name;
  PackedDecodeFn packed;
};

KernelChoice PickKernel() {
  const ColumnCompareFn sse2 = Sse2ColumnCompare();
  ColumnCompareFn avx2 = Avx2ColumnCompare();  // null when not compiled in
#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
  if (avx2 != nullptr && !__builtin_cpu_supports("avx2")) {
    avx2 = nullptr;
  }
#else
  avx2 = nullptr;
#endif
  const std::string want = GetEnvString("SEGDIFF_SCAN_KERNEL", "");
  if (want == "scalar") {
    return {&ColumnCompareScalar, "scalar", nullptr};
  }
  if (want == "sse2" && sse2 != nullptr) {
    return {sse2, "sse2", nullptr};
  }
  // Default (and fallback for unsupported requests): widest available.
  // Both AVX2 translation units are built with the same flag, so the
  // compare kernel exists exactly when the decoder does.
  if (avx2 != nullptr) {
    return {avx2, "avx2", Avx2PackedDecode()};
  }
  if (sse2 != nullptr) {
    return {sse2, "sse2", nullptr};
  }
  return {&ColumnCompareScalar, "scalar", nullptr};
}

const KernelChoice& Active() {
  static const KernelChoice choice = PickKernel();
  return choice;
}

bool RangeCanMatch(const ColumnCondition& cond, double lo, double hi) {
  switch (cond.op) {
    case CmpOp::kLt:
      return lo < cond.value;
    case CmpOp::kLe:
      return lo <= cond.value;
    case CmpOp::kGt:
      return hi > cond.value;
    case CmpOp::kGe:
      return hi >= cond.value;
    case CmpOp::kEq:
      return lo <= cond.value && cond.value <= hi;
  }
  return true;
}

/// What a zone's statistics say about one column: the range of its
/// non-NaN cells (lo > hi when there are none) and whether any cell is
/// NaN.
struct ColumnBounds {
  double lo;
  double hi;
  bool has_nan;
};

/// The one bounds test, behind both page zones (ZoneCanMatch) and
/// segment zones (SegmentCanMatch): true when some row of a zone could
/// satisfy every condition. `bounds_of(col)` yields the zone's
/// ColumnBounds for a column below `num_columns`; the zone holds no
/// evidence about columns past that.
template <typename BoundsOf>
bool BoundsCanMatch(const std::vector<ColumnCondition>& conditions,
                    size_t num_columns, BoundsOf bounds_of) {
  for (const ColumnCondition& cond : conditions) {
    if (cond.column >= num_columns) {
      continue;  // no evidence about this column; cannot prune on it
    }
    const ColumnBounds bounds = bounds_of(cond.column);
    if (std::isnan(bounds.lo) || std::isnan(bounds.hi)) {
      continue;  // polluted bounds must never justify a skip
    }
    if (bounds.lo > bounds.hi) {
      // No non-NaN value was observed. With the NaN bit set, every cell
      // of this column is NaN and fails any comparison — the zone
      // cannot match. Without it the zone is inconsistent; do not prune.
      if (bounds.has_nan) {
        return false;
      }
      continue;
    }
    if (!RangeCanMatch(cond, bounds.lo, bounds.hi)) {
      return false;
    }
  }
  return true;
}

}  // namespace

void GatherColumn(const char* records, size_t record_bytes, size_t count,
                  size_t column, double* vals) {
  const char* cell = records + 8 * column;
  for (size_t i = 0; i < count; ++i) {
    vals[i] = DecodeDouble(cell);
    cell += record_bytes;
  }
}

void InitSelectionBitmap(size_t count, uint64_t* bitmap) {
  const size_t words = (count + 63) / 64;
  for (size_t w = 0; w < words; ++w) {
    bitmap[w] = ~uint64_t{0};
  }
  if (count % 64 != 0) {
    bitmap[words - 1] = ~uint64_t{0} >> (64 - count % 64);
  }
}

ColumnCompareFn ActiveColumnCompare() { return Active().fn; }

const char* ActiveScanKernelName() { return Active().name; }

PackedDecodeFn ActivePackedDecode() { return Active().packed; }

ColumnCompareFn ScalarColumnCompare() { return &ColumnCompareScalar; }

ColumnCompareFn Sse2ColumnCompare() {
#if defined(__x86_64__) || defined(_M_X64)
  return &ColumnCompareSse2;
#else
  return nullptr;
#endif
}

bool ZoneCanMatch(const ZoneMap& zone_map, size_t zone_idx,
                  const std::vector<ColumnCondition>& conditions) {
  return BoundsCanMatch(conditions, zone_map.num_columns(), [&](size_t col) {
    return ColumnBounds{zone_map.Min(zone_idx, col),
                        zone_map.Max(zone_idx, col),
                        zone_map.HasNan(zone_idx, col)};
  });
}

ZoneSurvey SurveyZones(const ZoneMap& zone_map,
                       const std::vector<ColumnCondition>& conditions) {
  ZoneSurvey survey;
  survey.zones_total = zone_map.zone_count();
  survey.rows_total = zone_map.total_rows();
  for (size_t z = 0; z < zone_map.zone_count(); ++z) {
    if (ZoneCanMatch(zone_map, z, conditions)) {
      ++survey.zones_surviving;
      survey.rows_surviving += zone_map.zone(z).rows;
    }
  }
  return survey;
}

bool SegmentCanMatch(const ColumnSegmentInfo& info,
                     const std::vector<ColumnCondition>& conditions) {
  return BoundsCanMatch(conditions, info.min.size(), [&](size_t col) {
    return ColumnBounds{info.min[col], info.max[col],
                        ((info.nan_mask >> col) & 1u) != 0};
  });
}

ColumnarSurvey SurveyColumnarSegments(
    const ColumnStore& store,
    const std::vector<ColumnCondition>& conditions) {
  ColumnarSurvey survey;
  survey.segments_total = store.segment_count();
  survey.rows_total = store.row_count();
  survey.pages_total = store.page_count();
  for (const ColumnSegmentInfo& info : store.meta().segments) {
    if (SegmentCanMatch(info, conditions)) {
      ++survey.segments_surviving;
      survey.rows_surviving += info.rows;
      survey.pages_surviving += info.pages;
    }
  }
  return survey;
}

Result<ColumnDecoder> ColumnDecoder::Create(
    ColumnSegmentHandle* handle, const std::vector<size_t>& columns) {
  ColumnDecoder decoder;
  decoder.handle_ = handle;
  decoder.columns_ = columns;
  decoder.buffers_.resize(columns.size());
  decoder.cursors_.reserve(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    const size_t col = columns[i];
    if (col >= handle->num_columns() || col >= ZoneMap::kMaxColumns) {
      return Status::InvalidArgument("decoder column out of range");
    }
    decoder.slot_of_[col] = static_cast<uint8_t>(i);
    SEGDIFF_ASSIGN_OR_RETURN(ColumnCursor cursor,
                             handle->OpenColumn(col, ActivePackedDecode()));
    decoder.cursors_.push_back(cursor);
  }
  return decoder;
}

Result<size_t> ColumnDecoder::NextBatch() {
  const size_t rows = handle_->rows();
  if (next_row_ >= rows) {
    return size_t{0};
  }
  const size_t count = std::min(kColumnBatchRows, rows - next_row_);
  for (size_t i = 0; i < cursors_.size(); ++i) {
    if (!cursors_[i].Decode(count, buffers_[i].vals)) {
      return Status::Corruption(
          "columnar segment at page " +
          std::to_string(handle_->first_page()) + ": column " +
          std::to_string(columns_[i]) + " does not decode");
    }
  }
  batch_start_ = next_row_;
  next_row_ += count;
  return count;
}

}  // namespace segdiff
