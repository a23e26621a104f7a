#include "feature/schema.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <new>

namespace segdiff {
namespace {

/// Buckets up to this size are insertion-sorted; larger ones (many pairs
/// sharing a t_d, or one bucket for the whole input) merge-sort.
constexpr size_t kInsertionSortMax = 16;

/// Below this many pairs one stable sort beats the counting pass.
constexpr size_t kMinBucketedPairs = 64;

/// Uninitialized storage for pairs that are written before they are read.
/// PairId's member initializers would zero every slot of a
/// std::vector<PairId>(n), and of a make_unique_for_overwrite array too;
/// raw storage skips that, and PairId, an aggregate, is an
/// implicit-lifetime type, so writing a slot starts its object.
struct OperatorDelete {
  void operator()(PairId* p) const { ::operator delete(p); }
};
using PairBuffer = std::unique_ptr<PairId[], OperatorDelete>;

PairBuffer NewPairBuffer(size_t n) {
  return PairBuffer(static_cast<PairId*>(::operator new(n * sizeof(PairId))));
}

/// Stable sort of [first, last) by PairIdLess.
void SortRun(PairId* first, PairId* last) {
  if (last - first > static_cast<std::ptrdiff_t>(kInsertionSortMax)) {
    std::stable_sort(first, last, PairIdLess);
    return;
  }
  for (PairId* i = first + 1; i < last; ++i) {
    const PairId pair = *i;
    PairId* j = i;
    for (; j > first && PairIdLess(pair, *(j - 1)); --j) {
      *j = *(j - 1);
    }
    *j = pair;
  }
}

/// Stable counting scatter of `pairs` into about n/2 runs by t_d in a
/// scratch buffer, each run then sorted, and the first pair of each key
/// copied back into `pairs`. False, with `pairs` untouched, when the t_d
/// spread cannot be scaled to bucket indexes: all equal, an infinite
/// span (keys near ±DBL_MAX) or a span so small that its reciprocal
/// overflows (a subnormal apart).
bool BucketSortUnique(std::vector<PairId>* pairs) {
  const size_t n = pairs->size();
  const auto [lo_it, hi_it] = std::minmax_element(
      pairs->begin(), pairs->end(),
      [](const PairId& a, const PairId& b) { return a.t_d < b.t_d; });
  const double lo = lo_it->t_d;
  const double span = hi_it->t_d - lo;
  const size_t buckets = n / 2;
  const double scale = static_cast<double>(buckets - 1) / span;
  if (!(span > 0.0) || !std::isfinite(span) || !std::isfinite(scale)) {
    return false;
  }
  // (t_d - lo) * scale is monotone in t_d, so bucket order is t_d
  // order; it stays below `buckets` after rounding, and the clamp keeps
  // the index in range regardless.
  auto bucket_of = [lo, scale, buckets](double t_d) {
    return std::min(static_cast<size_t>((t_d - lo) * scale), buckets - 1);
  };
  // ends[b + 1] counts bucket b; the prefix sum turns ends[b] into
  // bucket b's first slot, and the scatter advances it to its end.
  std::vector<size_t> ends(buckets + 1, 0);
  for (const PairId& pair : *pairs) {
    ++ends[bucket_of(pair.t_d) + 1];
  }
  for (size_t b = 1; b <= buckets; ++b) {
    ends[b] += ends[b - 1];
  }
  const PairBuffer scattered = NewPairBuffer(n);
  for (const PairId& pair : *pairs) {
    scattered[ends[bucket_of(pair.t_d)]++] = pair;
  }
  size_t begin = 0;
  for (size_t b = 0; b < buckets; ++b) {
    SortRun(scattered.get() + begin, scattered.get() + ends[b]);
    begin = ends[b];
  }
  pairs->erase(std::unique_copy(scattered.get(), scattered.get() + n,
                                pairs->begin(), PairIdKeyEq),
               pairs->end());
  return true;
}

}  // namespace

void SortUniquePairs(std::vector<PairId>* pairs) {
  if (pairs->size() >= kMinBucketedPairs && BucketSortUnique(pairs)) {
    return;
  }
  SortRun(pairs->data(), pairs->data() + pairs->size());
  pairs->erase(std::unique(pairs->begin(), pairs->end(), PairIdKeyEq),
               pairs->end());
}

}  // namespace segdiff
