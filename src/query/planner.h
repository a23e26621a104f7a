// Minimal access-path planner.
//
// The paper evaluates sequential scan and index access separately and
// observes the crossover: index access loses once a query matches a
// large fraction of rows (random heap fetches dominate). The planner
// prices both sides from zone-map and columnar-segment statistics and
// picks the cheaper one.

#ifndef SEGDIFF_QUERY_PLANNER_H_
#define SEGDIFF_QUERY_PLANNER_H_

#include <cstdint>
#include <vector>

#include "query/predicate.h"
#include "storage/column_page.h"
#include "storage/snapshot.h"

namespace segdiff {

enum class AccessPath : unsigned char { kSeqScan, kIndexScan };

struct PlanChoice {
  AccessPath path = AccessPath::kSeqScan;
  double estimated_selectivity = 1.0;
};

struct PlannerOptions {
  /// Cost-model constants, in relative units where reading one heap
  /// page sequentially costs 1. Index entries are cheap (cache-dense
  /// leaf walks); each candidate heap fetch is a random page read, the
  /// classical reason secondary-index access loses on dense queries
  /// (paper Figures 10-11).
  double seq_page_cost = 1.0;
  double index_entry_cost = 0.001;
  double random_fetch_cost = 4.0;
};

/// Zone-map-derived statistics for the cost model. The page counts come
/// from a per-query zone survey (SurveyZones), so the sequential side is
/// priced at what the pruned scan will actually read; the fractions
/// estimate the index side from real per-column ranges.
struct TableStatsView {
  uint64_t row_count = 0;
  uint64_t pages_total = 0;
  /// Pages whose zone ranges intersect the query (<= pages_total).
  uint64_t pages_after_pruning = 0;
  /// Estimated fraction of index entries the range walk visits
  /// (selectivity of the leading key column's bound).
  double index_entry_fraction = 1.0;
  /// Estimated fraction of rows surviving every key-column bound — each
  /// one costs a random heap fetch on the index path.
  double heap_fetch_fraction = 1.0;
  /// Multiplier on random_fetch_cost for this table's row mix. A random
  /// fetch into a compressed columnar segment decodes a whole segment
  /// (amortized by the store's one-segment cache, but still far pricier
  /// than a heap page read); callers set this to the row-weighted mean
  /// of 1.0 (heap rows) and kColumnarFetchCostScale (columnar rows).
  double random_fetch_cost_scale = 1.0;
};

/// Relative cost of one random fetch that lands in a columnar segment
/// versus one that lands in a row-format heap page.
inline constexpr double kColumnarFetchCostScale = 4.0;

/// Cost-based choice: pruned-sequential page cost vs index entry walk +
/// random heap fetches. Malformed statistics (NaN or out-of-range
/// fractions) fall back to the always-correct sequential scan.
/// estimated_selectivity reports the index-entry fraction.
PlanChoice ChooseAccessPath(const TableStatsView& stats, bool index_available,
                            const PlannerOptions& options = {});

/// Plans one conjunctive range query whose leading condition bounds the
/// index's leading key column, over a table as a search's snapshot sees
/// it: heap pages (`view`, whose zone map may be null) plus immutable
/// columnar segments (`columnar`, may be null). The sequential side is
/// priced at what the pruned scan will read — heap pages surviving the
/// zone map plus columnar pages surviving the segment directory — and
/// the index side from per-column value ranges merged across both
/// formats, with random fetches weighted by the table's row mix. No
/// statistics at all, or no index, means the sequential scan.
PlanChoice PlanRangeQuery(const TableSnapshotView& view,
                          const ColumnStore* columnar,
                          const std::vector<ColumnCondition>& conditions,
                          bool index_available,
                          const PlannerOptions& options = {});

}  // namespace segdiff

#endif  // SEGDIFF_QUERY_PLANNER_H_
