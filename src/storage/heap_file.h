// Heap file: an append-only chain of pages holding fixed-width records.
//
// Data page layout:
//   [ 0..7  ] next page id (kInvalidPageId at tail)
//   [ 8..9  ] record count in this page
//   [10..15 ] reserved
//   [16..   ] records, record_bytes each (up to kPageCapacity; the
//             trailing kPageTrailerBytes belong to the pager's checksum)
//
// Reads walk pages in one of two ways: the chain walk (ScanChain)
// follows the next pointers from the first page, and the page-list
// walk (ScanPageList) visits a slice of page ids collected up front,
// which is how a partitioned scan splits the heap. Every walk visits
// the whole heap: a callback stops one only by failing it. The record
// walk (Scan) and the page-id collection (CollectPageIds) are adapters
// over the chain walk; Scan serves the heap-only rebuilds (zone map,
// index back-fill), while table reads go through the scan executor
// (query/executor.h). Point reads resolve a RecordId.
//
// The HeapFileMeta is authoritative over the page headers. Pages fill
// strictly in order, so the i-th page of the chain holds
// min(records_per_page, record_count - i * records_per_page) records;
// scans derive counts from that and bound the chain walk by
// meta.page_count rather than trusting on-page state. Two situations
// make the distinction matter:
//   - snapshot reads: a scan over a frozen HeapFileMeta (plus a pool
//     snapshot for page contents) sees exactly the snapshot's rows even
//     while a writer keeps appending to the live tail;
//   - crash recovery: a dirty tail page stolen to disk between
//     checkpoints can persist more rows (and a further chain) than the
//     checkpointed catalog records; deriving from the meta masks those
//     phantom rows, and Append overwrites them slot by slot during WAL
//     replay, reproducing the pre-crash bytes exactly.

#ifndef SEGDIFF_STORAGE_HEAP_FILE_H_
#define SEGDIFF_STORAGE_HEAP_FILE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "storage/buffer_pool.h"
#include "storage/extent.h"
#include "storage/page.h"

namespace segdiff {

/// Persistent position of a heap file, as stored in the catalog.
struct HeapFileMeta {
  PageId first_page = kInvalidPageId;
  PageId last_page = kInvalidPageId;
  uint64_t record_count = 0;
  uint64_t page_count = 0;
};

/// Routing around corrupt pages, for partial-result scans and repair
/// salvage. When passed to a scan, a page whose fetch fails its
/// checksum is reported through `on_skip` and the scan continues —
/// recovering the chain's next pointer from the page's raw bytes where
/// possible — instead of failing the whole scan. Non-corruption errors
/// still fail. `lost_records` is how many records the skipped page
/// logically held; a call with `page == kInvalidPageId` reports an
/// unreachable chain remainder (the corrupt page's next pointer could
/// not be trusted) rather than a single page.
struct CorruptPageSkipper {
  std::function<void(PageId page, uint64_t lost_records)> on_skip;
};

/// Access object over one heap file. Cheap to construct; all state that
/// must survive restarts lives in HeapFileMeta (persisted by the
/// catalog). Snapshot scans exploit the cheapness: they attach a
/// throwaway HeapFile over the frozen meta and read through the pool
/// snapshot passed to the scan methods.
class HeapFile {
 public:
  static constexpr size_t kHeaderBytes = 16;

  /// Creates a fresh, empty heap file. No pages are allocated until the
  /// first Append, so empty heaps (fresh tables, fully columnar tables)
  /// occupy zero file space.
  static Result<HeapFile> Create(BufferPool* pool, size_t record_bytes);

  /// Attaches to an existing heap file described by `meta`.
  static Result<HeapFile> Attach(BufferPool* pool, size_t record_bytes,
                                 const HeapFileMeta& meta);

  /// Appends one record (record_bytes bytes); returns its id. The
  /// append slot comes from the meta, not the tail page header, so
  /// replay after a crash overwrites any phantom rows in place.
  Result<RecordId> Append(const char* record);

  /// Visits records in storage order (over the chain walk); a failing
  /// callback ends the walk with its status. `snap` (nullable) reads
  /// page contents as of a pool snapshot — pair it with a frozen meta.
  using ScanFn = std::function<Status(const char* record, RecordId id)>;
  Status Scan(const ScanFn& fn, const PoolSnapshot* snap = nullptr,
              const CorruptPageSkipper* skip = nullptr) const;

  /// Copies the record at `id` into `buf` (record_bytes bytes).
  Status ReadRecord(RecordId id, char* buf,
                    const PoolSnapshot* snap = nullptr) const;

  /// Page ids of the chain in storage order (over the chain walk,
  /// bounded by meta.page_count). The walk fetches every page (one pool
  /// fetch per page), so callers partitioning a scan should reuse the
  /// result.
  /// With a skipper, a corrupt chain page's id is still included (the
  /// consuming scan reports it when its own fetch fails); only an
  /// unreachable remainder is reported here, since no partition would
  /// ever see those pages.
  Result<std::vector<PageId>> CollectPageIds(
      const PoolSnapshot* snap = nullptr,
      const CorruptPageSkipper* skip = nullptr) const;

  /// The chain walk, a page at a time: the callback sees each page's
  /// record area (`records` = first record, `count` records of
  /// record_bytes each) while the page stays pinned, so batched
  /// executors can evaluate a whole page without per-record dispatch.
  /// Every page is fetched through the buffer pool — and therefore
  /// checksum-verified — even when the callback then decides to skip it
  /// (zone-map pruning must not mask corruption).
  using PageDataFn = std::function<Status(PageId page, const char* records,
                                          uint16_t count)>;
  Status ScanChain(const PageDataFn& fn, const PoolSnapshot* snap = nullptr,
                   const CorruptPageSkipper* skip = nullptr) const;

  /// The page-list walk: the same callback over only `pages` (a
  /// contiguous slice of CollectPageIds() whose first element sits at
  /// chain position `first_page_index`), in the given order. With a
  /// skipper a corrupt page costs only its own records, since the chain
  /// is already resolved.
  Status ScanPageList(const std::vector<PageId>& pages,
                      uint64_t first_page_index, const PageDataFn& fn,
                      const PoolSnapshot* snap = nullptr,
                      const CorruptPageSkipper* skip = nullptr) const;

  const HeapFileMeta& meta() const { return meta_; }
  size_t record_bytes() const { return record_bytes_; }
  size_t records_per_page() const { return records_per_page_; }
  uint64_t SizeBytes() const { return meta_.page_count * kPageSize; }

 private:
  HeapFile(BufferPool* pool, size_t record_bytes, const HeapFileMeta& meta);

  /// Records held by the page at chain position `page_index`, derived
  /// from the meta (pages fill strictly in order).
  uint16_t PageRecordCount(uint64_t page_index) const;

  /// Handles a failed fetch of chain page `*current` at chain position
  /// `index`. With a skipper and a Corruption error: reports the loss,
  /// recovers the next pointer from the page's raw on-disk bytes (page
  /// headers often survive a payload flip), validates it, and stores it
  /// in `*current` — kInvalidPageId, plus a report of the unreachable
  /// remainder, when the pointer cannot be trusted. Without a skipper,
  /// or for non-corruption errors, returns the error unchanged.
  Status SkipCorruptChainPage(const Status& error, PageId* current,
                              uint64_t index,
                              const CorruptPageSkipper* skip) const;

  BufferPool* pool_;
  ExtentAllocator allocator_;
  size_t record_bytes_;
  size_t records_per_page_;
  HeapFileMeta meta_;
};

}  // namespace segdiff

#endif  // SEGDIFF_STORAGE_HEAP_FILE_H_
