// Zone maps: per-heap-page column statistics for scan pruning.
//
// One zone summarizes one heap page of an all-double table: the row
// count it has observed, a per-column has-NaN bit, and per-column
// [min, max] bounds computed over the page's non-NaN values. A scan can
// skip a page when no value inside its bounds could satisfy the query's
// conjunctive column conditions (NaN rows never match a comparison, so
// bounds over the non-NaN values are sufficient evidence).
//
// Zone maps are derived data: they are maintained incrementally on
// append, serialized into the catalog as a `zonemap.<table>` meta blob
// at checkpoint, and rebuilt from a heap scan when absent or
// inconsistent (a blob that fails to parse or disagrees with the heap
// after crash recovery). Losing one never loses rows — only pruning.

#ifndef SEGDIFF_STORAGE_ZONE_MAP_H_
#define SEGDIFF_STORAGE_ZONE_MAP_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "storage/page.h"
#include "storage/record.h"

namespace segdiff {

/// Reserved catalog-blob prefix; the full key is this + the table name.
inline constexpr char kZoneMapBlobPrefix[] = "zonemap.";

/// Per-page summary header. Column bounds live in the ZoneMap's flat
/// bounds array (zones x columns x {min, max}).
struct Zone {
  PageId page = kInvalidPageId;
  uint32_t rows = 0;      ///< records these stats cover
  uint32_t nan_mask = 0;  ///< bit c set: column c saw at least one NaN
};

class ZoneMap {
 public:
  /// nan_mask is 32 bits wide; wider all-double schemas simply run
  /// without a zone map (pruning disabled, scans stay correct).
  static constexpr size_t kMaxColumns = 32;
  static constexpr size_t kNoZone = static_cast<size_t>(-1);

  /// True for all-double schemas of at most kMaxColumns columns.
  static bool SupportsSchema(const TableSchema& schema);

  explicit ZoneMap(size_t num_columns);

  /// Folds one appended record into the zone of `rid.page`, opening a
  /// new zone when the append moved to a fresh page. Records must be
  /// appended in heap order (the only order HeapFile::Append produces).
  void OnAppend(RecordId rid, const char* record);

  size_t num_columns() const { return num_columns_; }
  size_t zone_count() const { return zones_.size(); }
  uint64_t total_rows() const { return total_rows_; }

  /// Index of the zone covering `page`, or kNoZone.
  size_t FindZone(PageId page) const;

  const Zone& zone(size_t zone_idx) const { return zones_[zone_idx]; }
  double Min(size_t zone_idx, size_t col) const {
    return bounds_[(zone_idx * num_columns_ + col) * 2];
  }
  double Max(size_t zone_idx, size_t col) const {
    return bounds_[(zone_idx * num_columns_ + col) * 2 + 1];
  }
  bool HasNan(size_t zone_idx, size_t col) const {
    return (zones_[zone_idx].nan_mask >> col) & 1u;
  }

  /// Observed range of a column across all zones. `lo > hi` when no
  /// non-NaN value was ever observed.
  struct ColumnRange {
    double lo;
    double hi;
    bool has_nan;
  };
  ColumnRange GlobalRange(size_t col) const;

  std::string Serialize() const;
  static Result<ZoneMap> Deserialize(const std::string& blob);

 private:
  size_t num_columns_;
  uint64_t total_rows_ = 0;
  std::vector<Zone> zones_;
  std::vector<double> bounds_;  ///< zones x columns x {min, max}
  std::unordered_map<PageId, size_t> by_page_;
};

}  // namespace segdiff

#endif  // SEGDIFF_STORAGE_ZONE_MAP_H_
