// AVX2 variant of the column compare kernel. This translation unit
// alone is compiled with -mavx2 when the compiler supports it (mirroring
// the crc32c SSE4.2 arrangement); scan_kernel.cc only takes the function
// pointer after checking __builtin_cpu_supports("avx2") at runtime, so
// no AVX2 instruction executes on CPUs without it. Without -mavx2 this
// file compiles to a null factory and dispatch falls back to SSE2.

#include "query/scan_kernel.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>

namespace segdiff {
namespace {

// Four doubles per compare; _CMP_*_OQ predicates are ordered and quiet,
// so NaN compares false, matching EvalCondition.
template <CmpOp Op>
__m256d Cmp256(__m256d a, __m256d b) {
  if constexpr (Op == CmpOp::kLt) {
    return _mm256_cmp_pd(a, b, _CMP_LT_OQ);
  } else if constexpr (Op == CmpOp::kLe) {
    return _mm256_cmp_pd(a, b, _CMP_LE_OQ);
  } else if constexpr (Op == CmpOp::kGt) {
    return _mm256_cmp_pd(a, b, _CMP_GT_OQ);
  } else if constexpr (Op == CmpOp::kGe) {
    return _mm256_cmp_pd(a, b, _CMP_GE_OQ);
  } else {
    return _mm256_cmp_pd(a, b, _CMP_EQ_OQ);
  }
}

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
void AndCompareAvx2(const double* vals, size_t count, double bound,
                    uint64_t* bitmap) {
  const __m256d vb = _mm256_set1_pd(bound);
  for (size_t w = 0; w * 64 < count; ++w) {
    const size_t base = w * 64;
    const size_t limit = std::min<size_t>(64, count - base);
    uint64_t m = 0;
    size_t b = 0;
    for (; b + 4 <= limit; b += 4) {
      const __m256d va = _mm256_loadu_pd(vals + base + b);
      m |= static_cast<uint64_t>(_mm256_movemask_pd(Cmp256<Op>(va, vb))) << b;
    }
    for (; b < limit; ++b) {
      m |= static_cast<uint64_t>(CmpScalar<Op>(vals[base + b], bound)) << b;
    }
    bitmap[w] &= m;
  }
}

void ColumnCompareAvx2(const double* vals, size_t count, CmpOp op,
                       double bound, uint64_t* bitmap) {
  switch (op) {
    case CmpOp::kLt:
      AndCompareAvx2<CmpOp::kLt>(vals, count, bound, bitmap);
      break;
    case CmpOp::kLe:
      AndCompareAvx2<CmpOp::kLe>(vals, count, bound, bitmap);
      break;
    case CmpOp::kGt:
      AndCompareAvx2<CmpOp::kGt>(vals, count, bound, bitmap);
      break;
    case CmpOp::kGe:
      AndCompareAvx2<CmpOp::kGe>(vals, count, bound, bitmap);
      break;
    case CmpOp::kEq:
      AndCompareAvx2<CmpOp::kEq>(vals, count, bound, bitmap);
      break;
  }
}

}  // namespace

ColumnCompareFn Avx2ColumnCompare() { return &ColumnCompareAvx2; }

}  // namespace segdiff

#else  // !defined(__AVX2__)

namespace segdiff {

ColumnCompareFn Avx2ColumnCompare() { return nullptr; }

}  // namespace segdiff

#endif
