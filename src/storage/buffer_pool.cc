#include "storage/buffer_pool.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "storage/wal.h"

namespace segdiff {

PoolSnapshot::~PoolSnapshot() { pool_->ReleaseSnapshot(epoch_); }

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    page_id_ = other.page_id_;
    buffer_ = std::move(other.buffer_);
    data_ = other.data_;
    other.pool_ = nullptr;
    other.data_ = nullptr;
  }
  return *this;
}

PageHandle::~PageHandle() { Release(); }

void PageHandle::MarkDirty() {
  SEGDIFF_CHECK(valid());
  // Snapshot-version handles are frozen history; writing through one is
  // a bug in the caller, not a recoverable condition.
  SEGDIFF_CHECK(frame_ != kNoFrame);
  // The frame is pinned by this handle, so the dirty flag cannot race
  // with eviction; concurrent markers of the same pinned frame are
  // idempotent writes under the shard mutex.
  std::lock_guard<std::mutex> lock(pool_->ShardOf(page_id_).mu);
  BufferPool::Frame& frame = pool_->frames_[frame_];
  frame.dirty = true;
  if (pool_->wal_ != nullptr) {
    // Log-before-mutate: the record covering this change is already
    // appended, so the log's last LSN bounds it from above.
    frame.rec_lsn = pool_->wal_->last_lsn();
  }
}

void PageHandle::Release() {
  if (pool_ != nullptr) {
    if (frame_ != kNoFrame) {
      pool_->Unpin(frame_);
    }
    pool_ = nullptr;
    data_ = nullptr;
    buffer_.reset();
  }
}

BufferPool::BufferPool(Pager* pager, size_t capacity_pages) : pager_(pager) {
  SEGDIFF_CHECK_GE(capacity_pages, size_t{1});
  const size_t num_shards = std::max(
      size_t{1}, std::min(kMaxShards, capacity_pages / kMinFramesPerShard));
  frames_.resize(capacity_pages);
  shards_ = std::vector<Shard>(num_shards);
  // Deal the frames out round-robin; each shard's free list is its whole
  // slice of the pool. Buffers come later, in GrabFrame, on first use: a
  // store that touches a few dozen pages should not pay for a pool sized
  // for its whole file on every open and close.
  for (size_t i = 0; i < capacity_pages; ++i) {
    shards_[i % num_shards].free_frames.push_back(i);
  }
  for (Shard& shard : shards_) {
    // Matches the historical "lowest frame grabbed first" order so the
    // single-shard case reproduces the original pool exactly.
    std::reverse(shard.free_frames.begin(), shard.free_frames.end());
  }
}

BufferPool::~BufferPool() {
  if (abandoned_) return;
  // Best-effort flush; errors here cannot be reported.
  Status status = FlushAll();
  if (!status.ok()) {
    SEGDIFF_LOG(Error) << "buffer pool flush on destruction failed: "
                       << status.ToString();
  }
}

void BufferPool::Unpin(size_t frame_idx) {
  Frame& frame = frames_[frame_idx];
  // The frame is pinned (by the releasing handle), so its page_id is
  // stable and names the owning shard.
  Shard& shard = ShardOf(frame.page_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  SEGDIFF_CHECK_GT(frame.pin_count, 0);
  if (--frame.pin_count == 0) {
    shard.lru.push_front(frame_idx);
    frame.lru_pos = shard.lru.begin();
    frame.in_lru = true;
  }
}

Status BufferPool::FlushFrame(Frame& frame, Shard& shard, bool log_image) {
  if (frame.dirty && frame.page_id != kInvalidPageId) {
    if (log_image && wal_ != nullptr) {
      // Undo-before-steal: durably log the page's PRIOR on-disk bytes
      // before overwriting them. If the process dies after this write
      // but before the next checkpoint, the stolen page survives on
      // disk while the catalog still describes the old checkpoint;
      // recovery rolls the page back to this image (the oldest one per
      // page = its checkpoint-era content) so logical replay starts
      // from an exact checkpoint state. Raw read: the prior bytes may
      // themselves be a torn page left by an earlier crash.
      std::unique_ptr<char[]> prior(new char[kPageSize]);
      SEGDIFF_RETURN_IF_ERROR(
          pager_->ReadPageRaw(frame.page_id, prior.get()));
      SEGDIFF_ASSIGN_OR_RETURN(
          uint64_t image_lsn,
          wal_->AppendUndoImage(frame.page_id, prior.get(), kPageCapacity));
      SEGDIFF_RETURN_IF_ERROR(wal_->EnsureDurable(image_lsn));
    }
    if (wal_ != nullptr) {
      // WAL-before-data: the log must be durable through the last
      // record covering this frame before its bytes overwrite the
      // file. Usually a no-op — the undo image appended above (or by
      // FlushAll's batched pass) postdates rec_lsn, so its sync
      // already covered it — but enforced here directly rather than
      // relied on transitively.
      SEGDIFF_RETURN_IF_ERROR(wal_->EnsureDurable(frame.rec_lsn));
    }
    SEGDIFF_RETURN_IF_ERROR(pager_->WritePage(frame.page_id, frame.data.get()));
    frame.dirty = false;
    frame.rec_lsn = 0;
    ++shard.stats.dirty_writebacks;
  }
  return Status::OK();
}

Result<size_t> BufferPool::GrabFrame(Shard& shard) {
  if (!shard.free_frames.empty()) {
    const size_t idx = shard.free_frames.back();
    shard.free_frames.pop_back();
    Frame& frame = frames_[idx];
    if (frame.data == nullptr) {
      frame.data = std::shared_ptr<char[]>(new char[kPageSize]);
      ++shard.stats.frames_allocated;
    }
    return idx;
  }
  if (shard.lru.empty()) {
    return Status::Internal("buffer pool exhausted: all frames pinned");
  }
  // Evict the least recently used unpinned frame of this shard.
  const size_t victim = shard.lru.back();
  shard.lru.pop_back();
  Frame& frame = frames_[victim];
  frame.in_lru = false;
  Status flush = FlushFrame(frame, shard, /*log_image=*/true);
  if (!flush.ok()) {
    // Write-back failed: the page keeps its dirty contents and returns
    // to the LRU (still cached, still dirty, still evictable), so a
    // later flush can retry; the caller sees the IO error.
    shard.lru.push_back(victim);
    frame.lru_pos = std::prev(shard.lru.end());
    frame.in_lru = true;
    return flush;
  }
  shard.page_table.erase(frame.page_id);
  frame.page_id = kInvalidPageId;
  ++shard.stats.evictions;
  // An evicted frame's buffer may still be shared with late-releasing
  // handles; the next occupant must not scribble over their bytes.
  if (frame.data.use_count() > 1) {
    frame.data = std::shared_ptr<char[]>(new char[kPageSize]);
  }
  return victim;
}

Result<size_t> BufferPool::PinFrameLocked(PageId id, Shard& shard) {
  auto it = shard.page_table.find(id);
  if (it != shard.page_table.end()) {
    ++shard.stats.hits;
    const size_t idx = it->second;
    Frame& frame = frames_[idx];
    if (frame.pin_count == 0 && frame.in_lru) {
      shard.lru.erase(frame.lru_pos);
      frame.in_lru = false;
    }
    ++frame.pin_count;
    return idx;
  }
  ++shard.stats.misses;
  SEGDIFF_ASSIGN_OR_RETURN(size_t idx, GrabFrame(shard));
  Frame& frame = frames_[idx];
  // The read happens under the shard mutex: concurrent misses in the
  // same shard serialize (a per-frame IO latch would let them overlap,
  // but same-shard miss storms are rare with page-striped shards).
  Status read = pager_->ReadPage(id, frame.data.get());
  if (!read.ok()) {
    shard.free_frames.push_back(idx);
    ++shard.stats.read_failures;
    return read;
  }
  frame.page_id = id;
  frame.pin_count = 1;
  frame.dirty = false;
  frame.rec_lsn = 0;
  shard.page_table[id] = idx;
  return idx;
}

Result<PageHandle> BufferPool::Fetch(PageId id) {
  Shard& shard = ShardOf(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  SEGDIFF_ASSIGN_OR_RETURN(size_t idx, PinFrameLocked(id, shard));
  return PageHandle(this, idx, id, frames_[idx].data);
}

Result<PageHandle> BufferPool::Fetch(PageId id, const PoolSnapshot* snapshot) {
  if (snapshot == nullptr) return Fetch(id);
  Shard& shard = ShardOf(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.versions.find(id);
  if (it != shard.versions.end()) {
    // First version at-or-after the snapshot's epoch is the page's
    // content as of snapshot time.
    for (const PageVersion& version : it->second) {
      if (version.hi >= snapshot->epoch()) {
        return PageHandle(this, PageHandle::kNoFrame, id, version.image);
      }
    }
  }
  // No covering version: the page is unchanged since the snapshot (any
  // later write would have preserved a version first), so the live
  // frame — or disk — holds exactly the snapshot's bytes. Pinning must
  // happen under the SAME mutex hold as the version lookup: dropping
  // the lock in between would let a concurrent FetchMut preserve the
  // pre-image, swap the frame's buffer, and start mutating it before
  // the reader pins — the reader would then share the in-flight
  // mutable buffer and see torn or post-snapshot bytes. Pinned here,
  // the handle shares the frame's current (still pre-image) buffer,
  // and a later FetchMut COW-swaps the frame away from it, leaving the
  // reader on the immutable copy.
  SEGDIFF_ASSIGN_OR_RETURN(size_t idx, PinFrameLocked(id, shard));
  return PageHandle(this, idx, id, frames_[idx].data);
}

Result<PageHandle> BufferPool::FetchMut(PageId id) {
  Shard& shard = ShardOf(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  SEGDIFF_ASSIGN_OR_RETURN(size_t idx, PinFrameLocked(id, shard));
  Frame& frame = frames_[idx];
  PreserveVersionLocked(shard, frame);
  // The handle is built after the redirect, so it shares the frame's
  // fresh writable buffer, never the frozen version.
  return PageHandle(this, idx, id, frame.data);
}

void BufferPool::PreserveVersionLocked(Shard& shard, Frame& frame) {
  const uint64_t max_live = max_live_epoch_.load(std::memory_order_acquire);
  if (max_live == 0) return;
  auto it = shard.versions.find(frame.page_id);
  uint64_t last_hi = 0;
  if (it != shard.versions.end() && !it->second.empty()) {
    last_hi = it->second.back().hi;
  }
  // Covered already: every live snapshot either has a version at or
  // above its epoch, or was created after the last write to this page.
  if (max_live <= last_hi) return;
  // Move the current buffer into history (open reader handles keep
  // sharing it, now-immutable) and give the frame a fresh copy for the
  // caller's write.
  auto fresh = std::shared_ptr<char[]>(new char[kPageSize]);
  std::memcpy(fresh.get(), frame.data.get(), kPageSize);
  std::vector<PageVersion>& list =
      it != shard.versions.end() ? it->second : shard.versions[frame.page_id];
  list.push_back(PageVersion{epoch_counter_.load(std::memory_order_acquire),
                             std::move(frame.data)});
  frame.data = std::move(fresh);
  ++shard.stats.cow_copies;
}

std::shared_ptr<const PoolSnapshot> BufferPool::CreateSnapshot() {
  std::lock_guard<std::mutex> lock(snap_mu_);
  const uint64_t epoch = epoch_counter_.fetch_add(1) + 1;
  live_epochs_.insert(epoch);
  // The counter is monotone, so a new snapshot is always the max.
  max_live_epoch_.store(epoch, std::memory_order_release);
  return std::shared_ptr<const PoolSnapshot>(new PoolSnapshot(this, epoch));
}

void BufferPool::ReleaseSnapshot(uint64_t epoch) {
  std::set<uint64_t> live;
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    auto it = live_epochs_.find(epoch);
    if (it != live_epochs_.end()) live_epochs_.erase(it);
    max_live_epoch_.store(
        live_epochs_.empty() ? 0 : *live_epochs_.rbegin(),
        std::memory_order_release);
    live.insert(live_epochs_.begin(), live_epochs_.end());
  }
  // Garbage-collect versions no live snapshot can reach. An entry
  // covers epochs in (previous hi, hi]; it survives iff a live epoch
  // falls in that range.
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (live.empty()) {
      shard.versions.clear();
      continue;
    }
    for (auto it = shard.versions.begin(); it != shard.versions.end();) {
      std::vector<PageVersion>& list = it->second;
      std::vector<PageVersion> kept;
      uint64_t prev = 0;
      for (PageVersion& version : list) {
        auto first_live = live.upper_bound(prev);
        if (first_live != live.end() && *first_live <= version.hi) {
          kept.push_back(std::move(version));
        }
        prev = version.hi;
      }
      if (kept.empty()) {
        it = shard.versions.erase(it);
      } else {
        it->second = std::move(kept);
        ++it;
      }
    }
  }
}

Result<PageHandle> BufferPool::AllocatePinned() {
  SEGDIFF_ASSIGN_OR_RETURN(PageId id, pager_->AllocatePage());
  return PinFresh(id);
}

Result<PageHandle> BufferPool::PinFresh(PageId id) {
  Shard& shard = ShardOf(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  return PinFreshLocked(id, shard);
}

Result<PageHandle> BufferPool::PinFreshLocked(PageId id, Shard& shard) {
  if (shard.page_table.count(id) != 0) {
    return Status::Internal("PinFresh on a cached page");
  }
  SEGDIFF_ASSIGN_OR_RETURN(size_t idx, GrabFrame(shard));
  Frame& frame = frames_[idx];
  std::memset(frame.data.get(), 0, kPageSize);
  frame.page_id = id;
  frame.pin_count = 1;
  frame.dirty = true;
  frame.rec_lsn = wal_ != nullptr ? wal_->last_lsn() : 0;
  shard.page_table[id] = idx;
  return PageHandle(this, idx, id, frame.data);
}

Status BufferPool::FlushAll() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (wal_ != nullptr) {
      // Same undo-before-steal rule as eviction, but batched: log every
      // dirty page's prior on-disk bytes, force the log durable once,
      // then write the pages. A crash between any of the writes and the
      // checkpoint's header sync then rolls back cleanly instead of
      // leaving a file that is half old checkpoint, half new.
      std::unique_ptr<char[]> prior(new char[kPageSize]);
      uint64_t last_image_lsn = 0;
      for (const auto& [page_id, idx] : shard.page_table) {
        const Frame& frame = frames_[idx];
        if (!frame.dirty || frame.page_id == kInvalidPageId) continue;
        SEGDIFF_RETURN_IF_ERROR(pager_->ReadPageRaw(page_id, prior.get()));
        SEGDIFF_ASSIGN_OR_RETURN(
            last_image_lsn,
            wal_->AppendUndoImage(page_id, prior.get(), kPageCapacity));
      }
      SEGDIFF_RETURN_IF_ERROR(wal_->EnsureDurable(last_image_lsn));
    }
    for (const auto& [page_id, idx] : shard.page_table) {
      (void)page_id;
      SEGDIFF_RETURN_IF_ERROR(
          FlushFrame(frames_[idx], shard, /*log_image=*/false));
    }
  }
  return Status::OK();
}

Status BufferPool::DropAll() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [page_id, idx] : shard.page_table) {
      (void)page_id;
      if (frames_[idx].pin_count > 0) {
        return Status::Internal("DropAll with pinned pages");
      }
    }
  }
  SEGDIFF_RETURN_IF_ERROR(FlushAll());
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [page_id, idx] : shard.page_table) {
      (void)page_id;
      Frame& frame = frames_[idx];
      if (frame.in_lru) {
        shard.lru.erase(frame.lru_pos);
        frame.in_lru = false;
      }
      frame.page_id = kInvalidPageId;
      shard.free_frames.push_back(idx);
    }
    shard.page_table.clear();
  }
  return Status::OK();
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats total;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total.hits += shard.stats.hits;
    total.misses += shard.stats.misses;
    total.evictions += shard.stats.evictions;
    total.dirty_writebacks += shard.stats.dirty_writebacks;
    total.cow_copies += shard.stats.cow_copies;
    total.read_failures += shard.stats.read_failures;
    total.frames_allocated += shard.stats.frames_allocated;
  }
  return total;
}

size_t BufferPool::dirty_pages() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [page_id, idx] : shard.page_table) {
      (void)page_id;
      total += frames_[idx].dirty ? 1 : 0;
    }
  }
  return total;
}

size_t BufferPool::cached_pages() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.page_table.size();
  }
  return total;
}

}  // namespace segdiff
