// Fixed-size pages: the unit of disk IO and buffering in minidb.

#ifndef SEGDIFF_STORAGE_PAGE_H_
#define SEGDIFF_STORAGE_PAGE_H_

#include <cstddef>
#include <cstdint>

namespace segdiff {

/// Page size in bytes. 8 KiB, a common database default.
constexpr size_t kPageSize = 8192;

/// Every page ends in a trailer the pager owns (file format v2):
///   [kPageCapacity + 0 .. +3]  CRC32C of bytes [0, kPageCapacity)
///   [kPageCapacity + 4 .. +7]  trailer magic (distinguishes "no
///                              trailer" from "payload corrupted")
/// Page users (heap files, B+-tree nodes, the catalog chain) may only
/// touch the first kPageCapacity bytes; the pager stamps the trailer on
/// every write and verifies it on every read. Files of any other format
/// version fail to open (see storage/pager.h).
constexpr size_t kPageTrailerBytes = 8;
constexpr size_t kPageCapacity = kPageSize - kPageTrailerBytes;

/// Identifies a page within a database file. Page 0 is the file header,
/// page 1 the catalog root; data pages start at 2.
using PageId = uint64_t;

constexpr PageId kInvalidPageId = ~0ull;

/// Identifies a record: page plus slot within the page.
struct RecordId {
  PageId page = kInvalidPageId;
  uint32_t slot = 0;

  /// Packs into 64 bits (page ids stay far below 2^40 in practice).
  uint64_t Pack() const { return (page << 20) | (slot & 0xFFFFFu); }
  static RecordId Unpack(uint64_t packed) {
    return RecordId{packed >> 20, static_cast<uint32_t>(packed & 0xFFFFFu)};
  }

  friend bool operator==(const RecordId& a, const RecordId& b) {
    return a.page == b.page && a.slot == b.slot;
  }
};

}  // namespace segdiff

#endif  // SEGDIFF_STORAGE_PAGE_H_
