// Feature record produced by extraction, and the byte accounting used in
// the paper's compression analysis (Section 5.2).

#ifndef SEGDIFF_FEATURE_SCHEMA_H_
#define SEGDIFF_FEATURE_SCHEMA_H_

#include <cstddef>
#include <vector>

#include "feature/cases.h"
#include "feature/frontier.h"

namespace segdiff {

/// Identifies the ordered segment pair ((t_D, t_C), (t_B, t_A)) a feature
/// row belongs to. t_D may be the window-truncation point rather than a
/// real segment boundary (Algorithm 1 line 4). For self pairs,
/// (t_d, t_c) == (t_b, t_a).
struct PairId {
  double t_d = 0.0;
  double t_c = 0.0;
  double t_b = 0.0;
  double t_a = 0.0;

  friend bool operator==(const PairId& x, const PairId& y) {
    return x.t_d == y.t_d && x.t_c == y.t_c && x.t_b == y.t_b &&
           x.t_a == y.t_a;
  }
};

/// Search-result order: by t_d, then t_c, then t_b (t_a follows from
/// t_b). A strict weak order only over finite keys.
inline bool PairIdLess(const PairId& a, const PairId& b) {
  if (a.t_d != b.t_d) return a.t_d < b.t_d;
  if (a.t_c != b.t_c) return a.t_c < b.t_c;
  return a.t_b < b.t_b;
}

/// Same (t_d, t_c, t_b) key: one segment pair reported twice.
inline bool PairIdKeyEq(const PairId& a, const PairId& b) {
  return a.t_d == b.t_d && a.t_c == b.t_c && a.t_b == b.t_b;
}

/// Orders `pairs` by PairIdLess and keeps the first of each run of
/// equal keys: the result of std::stable_sort then std::unique (also
/// that of std::sort then std::unique wherever equal keys carry equal
/// bytes). Keys must be finite. Past a small-input cutoff one stable
/// counting pass scatters the pairs by t_d into about n/2 buckets of a
/// scratch buffer and each bucket is sorted, so a search's union costs
/// near-linear time instead of n log n.
void SortUniquePairs(std::vector<PairId>* pairs);

/// One extracted feature row: the eps-shifted frontier corners of one
/// segment pair for one search kind.
struct PairFeatures {
  PairId id;
  SearchKind kind = SearchKind::kDrop;
  SlopeCase slope_case = SlopeCase::kCase1;  ///< meaningful for cross pairs
  bool self_pair = false;
  StoredCorners corners;  ///< count in [1, 3]; dv values already shifted
};

/// Columns per stored feature row in OUR layout: both coordinates of each
/// of the k corners plus the three pair-identifying time stamps
/// (t_A is recomputed from the segment directory): 2k + 3.
constexpr size_t FeatureColumns(int corner_count) {
  return 2 * static_cast<size_t>(corner_count) + 3;
}

/// Columns per row in the PAPER's accounting (Section 5.2: c2 = 5, 6, 7
/// for 1, 2, 3 corners, i.e. k + 4). The paper elides the dt coordinates
/// of trailing corners; its own Section 4.4 indexes need them, so we store
/// them — see DESIGN.md. Exposed for the storage-accounting ablation.
constexpr size_t PaperFeatureColumns(int corner_count) {
  return static_cast<size_t>(corner_count) + 4;
}

/// Columns per row of the Exh baseline (dt, dv, anchor time stamp).
constexpr size_t kExhColumns = 3;

}  // namespace segdiff

#endif  // SEGDIFF_FEATURE_SCHEMA_H_
