#include "storage/heap_file.h"

#include <cstring>

#include "common/coding.h"

namespace segdiff {
namespace {

PageId PageNext(const char* page) { return DecodeFixed64(page); }
void SetPageNext(char* page, PageId next) { EncodeFixed64(page, next); }
uint16_t PageCount(const char* page) { return DecodeFixed16(page + 8); }
void SetPageCount(char* page, uint16_t count) {
  EncodeFixed16(page + 8, count);
}

}  // namespace

HeapFile::HeapFile(BufferPool* pool, size_t record_bytes,
                   const HeapFileMeta& meta)
    : pool_(pool),
      allocator_(pool->pager()),
      record_bytes_(record_bytes),
      records_per_page_((kPageCapacity - kHeaderBytes) / record_bytes),
      meta_(meta) {}

Result<HeapFile> HeapFile::Create(BufferPool* pool, size_t record_bytes) {
  if (record_bytes == 0 || record_bytes > kPageCapacity - kHeaderBytes) {
    return Status::InvalidArgument("record size does not fit a page");
  }
  // The first page (and its extent) is allocated lazily by the first
  // Append: an empty heap occupies zero pages, so tables whose rows all
  // live in columnar segments carry no heap slack.
  return HeapFile(pool, record_bytes, HeapFileMeta{});
}

Result<HeapFile> HeapFile::Attach(BufferPool* pool, size_t record_bytes,
                                  const HeapFileMeta& meta) {
  if (record_bytes == 0 || record_bytes > kPageCapacity - kHeaderBytes) {
    return Status::InvalidArgument("record size does not fit a page");
  }
  if ((meta.first_page == kInvalidPageId) !=
      (meta.last_page == kInvalidPageId)) {
    return Status::InvalidArgument("heap file meta has invalid pages");
  }
  if (meta.first_page == kInvalidPageId &&
      (meta.record_count != 0 || meta.page_count != 0)) {
    return Status::InvalidArgument("pageless heap file meta claims rows");
  }
  return HeapFile(pool, record_bytes, meta);
}

uint16_t HeapFile::PageRecordCount(uint64_t page_index) const {
  const uint64_t before = page_index * records_per_page_;
  if (before >= meta_.record_count) {
    return 0;
  }
  const uint64_t rest = meta_.record_count - before;
  return static_cast<uint16_t>(
      rest < records_per_page_ ? rest : records_per_page_);
}

Result<RecordId> HeapFile::Append(const char* record) {
  if (meta_.last_page == kInvalidPageId) {
    SEGDIFF_ASSIGN_OR_RETURN(PageId first, allocator_.Allocate());
    SEGDIFF_ASSIGN_OR_RETURN(PageHandle fresh, pool_->PinFresh(first));
    SetPageNext(fresh.data(), kInvalidPageId);
    SetPageCount(fresh.data(), 0);
    fresh.MarkDirty();
    meta_.first_page = first;
    meta_.last_page = first;
    meta_.page_count = 1;
  }
  SEGDIFF_ASSIGN_OR_RETURN(PageHandle page, pool_->FetchMut(meta_.last_page));
  // The tail slot comes from the meta, not the page header: a stolen
  // tail page can persist post-checkpoint rows across a crash, and WAL
  // replay must overwrite those slots in place, not append after them.
  uint64_t count =
      meta_.record_count - (meta_.page_count - 1) * records_per_page_;
  if (count >= records_per_page_) {
    // Tail page full: chain a new page from this heap's extents.
    SEGDIFF_ASSIGN_OR_RETURN(PageId fresh_id, allocator_.Allocate());
    SEGDIFF_ASSIGN_OR_RETURN(PageHandle fresh, pool_->PinFresh(fresh_id));
    SetPageNext(fresh.data(), kInvalidPageId);
    SetPageCount(fresh.data(), 0);
    fresh.MarkDirty();
    SetPageNext(page.data(), fresh.page_id());
    page.MarkDirty();
    meta_.last_page = fresh.page_id();
    ++meta_.page_count;
    page = std::move(fresh);
    count = 0;
  }
  char* slot =
      page.data() + kHeaderBytes + static_cast<size_t>(count) * record_bytes_;
  std::memcpy(slot, record, record_bytes_);
  SetPageCount(page.data(), static_cast<uint16_t>(count + 1));
  page.MarkDirty();
  ++meta_.record_count;
  return RecordId{page.page_id(), static_cast<uint32_t>(count)};
}

Status HeapFile::SkipCorruptChainPage(const Status& error, PageId* current,
                                      uint64_t index,
                                      const CorruptPageSkipper* skip) const {
  if (skip == nullptr || !error.IsCorruption()) {
    return error;
  }
  if (skip->on_skip) {
    skip->on_skip(*current, PageRecordCount(index));
  }
  // Best-effort chain continuation: the next pointer lives in the first
  // 8 bytes of the corrupt page, and a flipped bit elsewhere in the
  // payload leaves it intact — a raw (unverified) read recovers it.
  std::vector<char> raw(kPageSize);
  PageId next = kInvalidPageId;
  if (pool_->pager()->ReadPageRaw(*current, raw.data()).ok()) {
    next = PageNext(raw.data());
  }
  // An untrustworthy pointer (self-loop, past end of file — which also
  // covers kInvalidPageId) ends the walk; the rest of the chain is
  // unreachable and its records are reported as lost.
  if (next == *current || next >= pool_->pager()->page_count()) {
    next = kInvalidPageId;
  }
  if (next == kInvalidPageId && index + 1 < meta_.page_count) {
    const uint64_t reached = (index + 1) * records_per_page_;
    if (skip->on_skip && meta_.record_count > reached) {
      skip->on_skip(kInvalidPageId, meta_.record_count - reached);
    }
  }
  *current = next;
  return Status::OK();
}

Status HeapFile::Scan(const ScanFn& fn, const PoolSnapshot* snap,
                      const CorruptPageSkipper* skip) const {
  return ScanChain(
      [&](PageId page, const char* records, uint16_t count) -> Status {
        for (uint16_t slot = 0; slot < count; ++slot) {
          SEGDIFF_RETURN_IF_ERROR(
              fn(records + static_cast<size_t>(slot) * record_bytes_,
                 RecordId{page, slot}));
        }
        return Status::OK();
      },
      snap, skip);
}

Status HeapFile::ScanChain(const PageDataFn& fn, const PoolSnapshot* snap,
                           const CorruptPageSkipper* skip) const {
  PageId current = meta_.first_page;
  uint64_t index = 0;
  while (current != kInvalidPageId && index < meta_.page_count) {
    Result<PageHandle> page = pool_->Fetch(current, snap);
    if (!page.ok()) {
      SEGDIFF_RETURN_IF_ERROR(
          SkipCorruptChainPage(page.status(), &current, index, skip));
      ++index;
      continue;
    }
    SEGDIFF_RETURN_IF_ERROR(
        fn(current, (*page).data() + kHeaderBytes, PageRecordCount(index)));
    current = PageNext((*page).data());
    ++index;
  }
  return Status::OK();
}

Status HeapFile::ScanPageList(const std::vector<PageId>& pages,
                              uint64_t first_page_index, const PageDataFn& fn,
                              const PoolSnapshot* snap,
                              const CorruptPageSkipper* skip) const {
  for (size_t i = 0;
       i < pages.size() && first_page_index + i < meta_.page_count; ++i) {
    Result<PageHandle> page = pool_->Fetch(pages[i], snap);
    if (!page.ok()) {
      if (skip == nullptr || !page.status().IsCorruption()) {
        return page.status();
      }
      // Pre-collected ids: the chain is already resolved, so a corrupt
      // page costs only its own records.
      if (skip->on_skip) {
        skip->on_skip(pages[i], PageRecordCount(first_page_index + i));
      }
      continue;
    }
    SEGDIFF_RETURN_IF_ERROR(fn(pages[i], (*page).data() + kHeaderBytes,
                               PageRecordCount(first_page_index + i)));
  }
  return Status::OK();
}

Result<std::vector<PageId>> HeapFile::CollectPageIds(
    const PoolSnapshot* snap, const CorruptPageSkipper* skip) const {
  std::vector<PageId> pages;
  pages.reserve(meta_.page_count);
  // A corrupt page keeps its slot in the list (the consuming scan
  // reports it when its own fetch fails), so the chain walk's report of
  // the page itself only records its id; an unreachable-remainder
  // report (kInvalidPageId) is passed on.
  CorruptPageSkipper keep_slot;
  keep_slot.on_skip = [&](PageId page, uint64_t lost) {
    if (page != kInvalidPageId) {
      pages.push_back(page);
    } else if (skip->on_skip) {
      skip->on_skip(page, lost);
    }
  };
  SEGDIFF_RETURN_IF_ERROR(ScanChain(
      [&pages](PageId page, const char*, uint16_t) {
        pages.push_back(page);
        return Status::OK();
      },
      snap, skip != nullptr ? &keep_slot : nullptr));
  return pages;
}

Status HeapFile::ReadRecord(RecordId id, char* buf,
                            const PoolSnapshot* snap) const {
  SEGDIFF_ASSIGN_OR_RETURN(PageHandle page, pool_->Fetch(id.page, snap));
  const uint16_t count = PageCount(page.data());
  if (id.slot >= count) {
    return Status::NotFound("record slot out of range");
  }
  std::memcpy(buf,
              page.data() + kHeaderBytes +
                  static_cast<size_t>(id.slot) * record_bytes_,
              record_bytes_);
  return Status::OK();
}

}  // namespace segdiff
