#include "query/planner.h"

#include <algorithm>

#include "query/scan_kernel.h"

namespace segdiff {
namespace {

/// Estimated fraction of rows satisfying `cond`, assuming a uniform
/// distribution over the column's observed [lo, hi]. A NaN query bound
/// propagates into the result, which ChooseAccessPath rejects (falling
/// back to the sequential scan).
double ConditionFraction(const ZoneMap::ColumnRange& range,
                         const ColumnCondition& cond) {
  if (!(range.lo <= range.hi)) {
    return 1.0;  // column never observed: no evidence to plan on
  }
  const double width = range.hi - range.lo;
  switch (cond.op) {
    case CmpOp::kLt:
    case CmpOp::kLe:
      if (width <= 0.0) {
        return cond.value >= range.lo ? 1.0 : 0.0;
      }
      return std::clamp((cond.value - range.lo) / width, 0.0, 1.0);
    case CmpOp::kGt:
    case CmpOp::kGe:
      if (width <= 0.0) {
        return cond.value <= range.lo ? 1.0 : 0.0;
      }
      return std::clamp((range.hi - cond.value) / width, 0.0, 1.0);
    case CmpOp::kEq:
      return (cond.value >= range.lo && cond.value <= range.hi) ? 0.1 : 0.0;
  }
  return 1.0;
}

}  // namespace

PlanChoice ChooseAccessPath(const TableStatsView& stats, bool index_available,
                            const PlannerOptions& options) {
  PlanChoice choice;
  choice.estimated_selectivity = 1.0;
  if (!index_available || stats.row_count == 0) {
    return choice;
  }
  const bool fractions_valid =
      stats.index_entry_fraction >= 0.0 && stats.index_entry_fraction <= 1.0 &&
      stats.heap_fetch_fraction >= 0.0 && stats.heap_fetch_fraction <= 1.0 &&
      stats.random_fetch_cost_scale >= 1.0 &&
      stats.random_fetch_cost_scale <= kColumnarFetchCostScale;
  if (!fractions_valid || stats.pages_after_pruning > stats.pages_total) {
    return choice;  // untrustworthy stats (incl. NaN): sequential scan
  }
  choice.estimated_selectivity = stats.index_entry_fraction;
  const double rows = static_cast<double>(stats.row_count);
  const double seq_cost =
      static_cast<double>(stats.pages_after_pruning) * options.seq_page_cost;
  const double index_cost =
      stats.index_entry_fraction * rows * options.index_entry_cost +
      stats.heap_fetch_fraction * rows * options.random_fetch_cost *
          stats.random_fetch_cost_scale;
  if (index_cost < seq_cost) {
    choice.path = AccessPath::kIndexScan;
  }
  return choice;
}

PlanChoice PlanRangeQuery(const TableSnapshotView& view,
                          const ColumnStore* columnar,
                          const std::vector<ColumnCondition>& conditions,
                          bool index_available,
                          const PlannerOptions& options) {
  const ZoneMap* zone_map = view.zone_map.get();
  if (!index_available || conditions.empty() ||
      (zone_map == nullptr && columnar == nullptr)) {
    return PlanChoice{};  // no evidence to plan on: always-correct default
  }
  TableStatsView stats;
  stats.row_count = view.heap_meta.record_count +
                    (columnar != nullptr ? columnar->row_count() : 0);
  stats.pages_total = view.heap_meta.page_count;
  stats.pages_after_pruning = stats.pages_total;
  if (zone_map != nullptr) {
    const ZoneSurvey survey = SurveyZones(*zone_map, conditions);
    // Pages without a zone (e.g. crash-recovered tails) cannot be
    // pruned; keep them on the sequential side's bill.
    stats.pages_after_pruning =
        survey.zones_surviving + (stats.pages_total > survey.zones_total
                                      ? stats.pages_total - survey.zones_total
                                      : 0);
  }
  if (columnar != nullptr) {
    const ColumnarSurvey survey = SurveyColumnarSegments(*columnar, conditions);
    stats.pages_total += survey.pages_total;
    stats.pages_after_pruning += survey.pages_surviving;
    const uint64_t col_rows = columnar->row_count();
    if (stats.row_count > 0) {
      stats.random_fetch_cost_scale =
          (static_cast<double>(stats.row_count - col_rows) +
           kColumnarFetchCostScale * static_cast<double>(col_rows)) /
          static_cast<double>(stats.row_count);
    }
  }
  // Per-column global ranges merged across formats: compacted tables
  // hold most rows in columnar segments, whose statistics live in the
  // segment directory rather than the heap zone map.
  auto global_range = [&](size_t column) {
    ZoneMap::ColumnRange range{1.0, -1.0, false};
    if (zone_map != nullptr) {
      range = zone_map->GlobalRange(column);
    }
    if (columnar != nullptr) {
      const ZoneMap::ColumnRange cr = ColumnarGlobalRange(*columnar, column);
      if (cr.lo <= cr.hi) {
        if (range.lo <= range.hi) {
          range.lo = std::min(range.lo, cr.lo);
          range.hi = std::max(range.hi, cr.hi);
        } else {
          range.lo = cr.lo;
          range.hi = cr.hi;
        }
      }
      range.has_nan = range.has_nan || cr.has_nan;
    }
    return range;
  };
  // The index walk visits the entries the leading condition admits; each
  // entry surviving every condition costs a random heap fetch.
  stats.heap_fetch_fraction = 1.0;
  for (size_t i = 0; i < conditions.size(); ++i) {
    const double fraction =
        ConditionFraction(global_range(conditions[i].column), conditions[i]);
    if (i == 0) {
      stats.index_entry_fraction = fraction;
    }
    stats.heap_fetch_fraction *= fraction;
  }
  return ChooseAccessPath(stats, index_available, options);
}

}  // namespace segdiff
