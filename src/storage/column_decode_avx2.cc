// AVX2 decoder for frame-of-reference and delta columns. This
// translation unit alone is compiled with -mavx2 when the compiler
// supports it (the arrangement of query/scan_kernel_avx2.cc); the scan
// takes the function pointer only after checking
// __builtin_cpu_supports("avx2") at runtime (ActivePackedDecode), so no
// AVX2 instruction executes on CPUs without it. Without -mavx2 this file
// compiles to a null factory and cursors decode with the scalar loop.
//
// Eight values of width w span w whole bytes, so from a byte-aligned
// start every group of eight does too, and value i of every group sits
// at the same offset, bit i * w. One 32-byte load covers a group of
// widths up to 32 (the feature tables' time columns are 14-17 bits
// wide); two dword permutes move each value's two 32-bit words into its
// 64-bit lane, and a variable shift and a mask finish the unpack.
// Wider columns are left to the scalar loop.
//
// The integers convert to doubles exactly with the 2^52 + 2^51 magic
// number while |x| < 2^51 (adding x to the magic's bit pattern lands on
// a double whose unit in the last place is 1), and _mm256_div_pd rounds
// x / 10^s exactly as the scalar division does. A group whose integers
// leave that range is handed back to the scalar loop.

#include "storage/column_page.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace segdiff {
namespace {

/// Widest packed value the 32-byte group load serves.
constexpr unsigned kMaxGroupWidth = 32;

constexpr int64_t kTwoTo51 = int64_t{1} << 51;
/// The bit pattern of 2^52 + 2^51.
constexpr int64_t kMagicBits = 0x4338000000000000;

/// [a, b, c, d] -> [a, a+b, a+b+c, a+b+c+d].
inline __m256i PrefixSum4(__m256i v) {
  const __m256i shift1 = _mm256_blend_epi32(
      _mm256_permute4x64_epi64(v, _MM_SHUFFLE(2, 1, 0, 0)),
      _mm256_setzero_si256(), 0x03);
  v = _mm256_add_epi64(v, shift1);
  return _mm256_add_epi64(v, _mm256_permute2x128_si256(v, v, 0x08));
}

/// (z >> 1) ^ -(z & 1), four lanes at once.
inline __m256i UnZigZag4(__m256i z) {
  const __m256i sign = _mm256_sub_epi64(
      _mm256_setzero_si256(), _mm256_and_si256(z, _mm256_set1_epi64x(1)));
  return _mm256_xor_si256(_mm256_srli_epi64(z, 1), sign);
}

/// Bits at or above 2^52 of x + 2^51: zero in every lane exactly when
/// each lane lies in [-2^51, 2^51).
inline __m256i OutOfMagicRange(__m256i x) {
  return _mm256_srli_epi64(
      _mm256_add_epi64(x, _mm256_set1_epi64x(kTwoTo51)), 52);
}

inline __m256d ToDouble(__m256i x) {
  const __m256i magic = _mm256_set1_epi64x(kMagicBits);
  return _mm256_sub_pd(_mm256_castsi256_pd(_mm256_add_epi64(x, magic)),
                       _mm256_castsi256_pd(magic));
}

template <bool kDelta, bool kScaled>
size_t DecodeGroups(const ColumnDirEntry& dir, const char* bytes,
                    size_t groups, int64_t* running, double* out) {
  const unsigned w = dir.bit_width;
  // Value i of a group starts in 32-bit word (i * w) / 32 of the group's
  // first 32 bytes, (i * w) % 32 bits in; that word and the next, as one
  // 64-bit lane, hold all of its w <= 32 bits.
  alignas(32) int32_t words[16];
  alignas(32) int64_t shifts[8];
  for (unsigned i = 0; i < 8; ++i) {
    words[2 * i] = static_cast<int32_t>((i * w) / 32);
    words[2 * i + 1] = words[2 * i] + 1;  // 8 wraps to 0: masked off
    shifts[i] = (i * w) % 32;
  }
  const __m256i words_lo =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(words));
  const __m256i words_hi =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(words + 8));
  const __m256i shift_lo =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(shifts));
  const __m256i shift_hi =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(shifts + 4));
  const __m256i mask =
      _mm256_set1_epi64x(static_cast<int64_t>((uint64_t{1} << w) - 1));
  // The frame of reference, or a delta column's running integer; both
  // sums wrap like the scalar loop's unsigned ones.
  __m256i base = _mm256_set1_epi64x(kDelta ? *running : dir.base);
  const __m256d scale = _mm256_set1_pd(kScalePow10[dir.scale_log10]);

  size_t g = 0;
  for (; g < groups; ++g) {
    const __m256i data = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bytes + g * w));
    __m256i lo = _mm256_and_si256(
        _mm256_srlv_epi64(_mm256_permutevar8x32_epi32(data, words_lo),
                          shift_lo),
        mask);
    __m256i hi = _mm256_and_si256(
        _mm256_srlv_epi64(_mm256_permutevar8x32_epi32(data, words_hi),
                          shift_hi),
        mask);
    __m256i next_base = base;
    if constexpr (kDelta) {
      lo = PrefixSum4(UnZigZag4(lo));
      hi = _mm256_add_epi64(PrefixSum4(UnZigZag4(hi)),
                            _mm256_permute4x64_epi64(lo, 0xFF));
      next_base =
          _mm256_add_epi64(base, _mm256_permute4x64_epi64(hi, 0xFF));
    }
    lo = _mm256_add_epi64(lo, base);
    hi = _mm256_add_epi64(hi, base);
    const __m256i out_of_range =
        _mm256_or_si256(OutOfMagicRange(lo), OutOfMagicRange(hi));
    if (!_mm256_testz_si256(out_of_range, out_of_range)) {
      break;
    }
    __m256d v_lo = ToDouble(lo);
    __m256d v_hi = ToDouble(hi);
    if constexpr (kScaled) {
      v_lo = _mm256_div_pd(v_lo, scale);
      v_hi = _mm256_div_pd(v_hi, scale);
    }
    _mm256_storeu_pd(out + g * 8, v_lo);
    _mm256_storeu_pd(out + g * 8 + 4, v_hi);
    base = next_base;
  }
  if constexpr (kDelta) {
    *running = _mm256_extract_epi64(base, 0);
  }
  return g;
}

size_t PackedDecodeAvx2(const ColumnDirEntry& dir, const char* bytes,
                        size_t groups, int64_t* running, double* out) {
  if (dir.bit_width > kMaxGroupWidth) {
    return 0;
  }
  const bool delta = dir.encoding == ColumnEncoding::kDeltaPacked;
  const bool scaled = dir.scale_log10 != 0;
  if (delta) {
    return scaled ? DecodeGroups<true, true>(dir, bytes, groups, running, out)
                  : DecodeGroups<true, false>(dir, bytes, groups, running,
                                              out);
  }
  return scaled ? DecodeGroups<false, true>(dir, bytes, groups, running, out)
                : DecodeGroups<false, false>(dir, bytes, groups, running, out);
}

}  // namespace

PackedDecodeFn Avx2PackedDecode() { return &PackedDecodeAvx2; }

}  // namespace segdiff

#else  // !defined(__AVX2__)

namespace segdiff {

PackedDecodeFn Avx2PackedDecode() { return nullptr; }

}  // namespace segdiff

#endif
