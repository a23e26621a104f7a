// Minimal access-path planner.
//
// The paper evaluates sequential scan and index access separately and
// observes the crossover: index access loses once a query matches a
// large fraction of rows (random heap fetches dominate). The planner
// prices both sides from heap zone-map statistics and picks the cheaper
// one. Only row-format tables have indexes (a table with columnar
// segments carries none), so there is no columnar side to price.

#ifndef SEGDIFF_QUERY_PLANNER_H_
#define SEGDIFF_QUERY_PLANNER_H_

#include <cstdint>
#include <vector>

#include "query/predicate.h"
#include "storage/snapshot.h"

namespace segdiff {

enum class AccessPath : unsigned char { kSeqScan, kIndexScan };

struct PlanChoice {
  AccessPath path = AccessPath::kSeqScan;
  double estimated_selectivity = 1.0;
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
};

/// Cost-based choice: pruned-sequential page cost vs index entry walk +
/// random heap fetches. Malformed statistics (NaN or out-of-range
/// fractions) fall back to the always-correct sequential scan.
/// estimated_selectivity reports the index-entry fraction.
PlanChoice ChooseAccessPath(const TableStatsView& stats,
                            bool index_available);

/// Plans one conjunctive range query whose leading condition bounds the
/// index's leading key column, over a table's heap as a search's
/// snapshot sees it (`view`, whose zone map may be null). The
/// sequential side is priced at the heap pages surviving the zone map,
/// the index side from the map's per-column value ranges. No zone map,
/// or no index, means the sequential scan.
PlanChoice PlanRangeQuery(const TableSnapshotView& view,
                          const std::vector<ColumnCondition>& conditions,
                          bool index_available);

}  // namespace segdiff

#endif  // SEGDIFF_QUERY_PLANNER_H_
