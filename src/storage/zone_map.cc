#include "storage/zone_map.h"

#include <cmath>
#include <limits>

#include "common/bytes.h"

namespace segdiff {
namespace {

// 'Z' 'M' 'A' 'P' little endian.
constexpr uint32_t kZoneMapMagic = 0x50414D5Au;
constexpr uint8_t kZoneMapVersion = 1;

}  // namespace

bool ZoneMap::SupportsSchema(const TableSchema& schema) {
  if (schema.num_columns() == 0 || schema.num_columns() > kMaxColumns) {
    return false;
  }
  for (const Column& column : schema.columns()) {
    if (column.type != ColumnType::kDouble) {
      return false;
    }
  }
  return true;
}

ZoneMap::ZoneMap(size_t num_columns) : num_columns_(num_columns) {}

void ZoneMap::OnAppend(RecordId rid, const char* record) {
  if (zones_.empty() || zones_.back().page != rid.page) {
    by_page_.emplace(rid.page, zones_.size());
    zones_.push_back(Zone{rid.page, 0, 0});
    // Empty-range sentinel: min > max until a non-NaN value arrives.
    for (size_t c = 0; c < num_columns_; ++c) {
      bounds_.push_back(std::numeric_limits<double>::infinity());
      bounds_.push_back(-std::numeric_limits<double>::infinity());
    }
  }
  Zone& zone = zones_.back();
  double* zone_bounds = bounds_.data() + (zones_.size() - 1) * num_columns_ * 2;
  for (size_t c = 0; c < num_columns_; ++c) {
    const double v = DecodeDoubleColumn(record, c);
    if (std::isnan(v)) {
      zone.nan_mask |= 1u << c;
      continue;  // keep bounds NaN-free; NaN rows never match anyway
    }
    if (v < zone_bounds[2 * c]) {
      zone_bounds[2 * c] = v;
    }
    if (v > zone_bounds[2 * c + 1]) {
      zone_bounds[2 * c + 1] = v;
    }
  }
  ++zone.rows;
  ++total_rows_;
}

size_t ZoneMap::FindZone(PageId page) const {
  auto it = by_page_.find(page);
  return it == by_page_.end() ? kNoZone : it->second;
}

ZoneMap::ColumnRange ZoneMap::GlobalRange(size_t col) const {
  ColumnRange range{std::numeric_limits<double>::infinity(),
                    -std::numeric_limits<double>::infinity(), false};
  for (size_t z = 0; z < zones_.size(); ++z) {
    const double lo = Min(z, col);
    const double hi = Max(z, col);
    if (lo <= hi) {
      if (lo < range.lo) {
        range.lo = lo;
      }
      if (hi > range.hi) {
        range.hi = hi;
      }
    }
    range.has_nan = range.has_nan || HasNan(z, col);
  }
  return range;
}

std::string ZoneMap::Serialize() const {
  ByteWriter out;
  out.U32(kZoneMapMagic);
  out.U8(kZoneMapVersion);
  out.U32(static_cast<uint32_t>(num_columns_));
  out.U64(zones_.size());
  for (size_t z = 0; z < zones_.size(); ++z) {
    const Zone& zone = zones_[z];
    out.U64(zone.page);
    out.U32(zone.rows);
    out.U32(zone.nan_mask);
    for (size_t c = 0; c < num_columns_; ++c) {
      out.F64(Min(z, c));
      out.F64(Max(z, c));
    }
  }
  return out.Take();
}

Result<ZoneMap> ZoneMap::Deserialize(const std::string& blob) {
  ByteReader in(blob);
  SEGDIFF_ASSIGN_OR_RETURN(uint32_t magic, in.U32());
  if (magic != kZoneMapMagic) {
    return Status::Corruption("zone map blob has bad magic");
  }
  SEGDIFF_ASSIGN_OR_RETURN(uint8_t version, in.U8());
  if (version != kZoneMapVersion) {
    return Status::Corruption("zone map blob has unknown version");
  }
  SEGDIFF_ASSIGN_OR_RETURN(uint32_t num_columns, in.U32());
  if (num_columns == 0 || num_columns > kMaxColumns) {
    return Status::Corruption("zone map blob has bad column count");
  }
  SEGDIFF_ASSIGN_OR_RETURN(const uint64_t zone_count,
                           in.Count<uint64_t>(16 + 16 * num_columns));
  ZoneMap map(num_columns);
  map.zones_.reserve(zone_count);
  map.bounds_.reserve(zone_count * num_columns * 2);
  for (uint64_t z = 0; z < zone_count; ++z) {
    Zone zone;
    SEGDIFF_ASSIGN_OR_RETURN(zone.page, in.U64());
    SEGDIFF_ASSIGN_OR_RETURN(zone.rows, in.U32());
    SEGDIFF_ASSIGN_OR_RETURN(zone.nan_mask, in.U32());
    if (zone.rows == 0 || !map.by_page_.emplace(zone.page, z).second) {
      return Status::Corruption("zone map blob has an invalid zone");
    }
    map.zones_.push_back(zone);
    map.total_rows_ += zone.rows;
    for (size_t c = 0; c < num_columns; ++c) {
      SEGDIFF_ASSIGN_OR_RETURN(double lo, in.F64());
      SEGDIFF_ASSIGN_OR_RETURN(double hi, in.F64());
      map.bounds_.push_back(lo);
      map.bounds_.push_back(hi);
    }
  }
  SEGDIFF_RETURN_IF_ERROR(in.End());
  return map;
}

}  // namespace segdiff
