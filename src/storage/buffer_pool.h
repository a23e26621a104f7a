// LRU buffer pool over a Pager, with copy-on-write page snapshots.
//
// All page access in minidb goes through the pool, which pins frames via
// RAII PageHandles. DropAll() flushes and evicts everything — the repo's
// stand-in for the paper's "operating system cache is flushed before
// every query" protocol (Section 6); leaving the pool warm models the
// "system cache available" runs (Section 6.4).
//
// Thread safety: the pool is striped into shards, each owning a fixed
// slice of the frames plus its own mutex, LRU list, free list, and page
// table; a page lives in the shard `page_id % num_shards`, so concurrent
// readers of different pages rarely contend. Fetch/PinFresh/Allocate and
// handle release are safe from any thread. FlushAll/DropAll lock shards
// one at a time and must not race with concurrent fetches (they are
// control-plane operations, called between queries). Small pools
// (< kMinFramesPerShard pages) collapse to a single shard, preserving
// the exact single-threaded eviction semantics the paper experiments
// rely on.
//
// Snapshots (concurrent ingest + query): CreateSnapshot() freezes a
// point-in-time view at an epoch. Writers fetch pages they will mutate
// through FetchMut(), which — when a snapshot is live and the page has
// no version covering it yet — moves the frame's current buffer into a
// per-page version list and gives the frame a fresh copy before the
// write (copy-on-write, one copy per page per snapshot epoch at most).
// Readers fetch through Fetch(id, snapshot): a version covering the
// snapshot's epoch serves a frozen, unpinned buffer; otherwise the page
// is unchanged since the snapshot and the live frame (or disk) is
// correct. Versions are garbage-collected when snapshots release.
//
// Snapshot discipline (callers must uphold; the engines do via their
// ingest mutex):
//   - CreateSnapshot() must not race with writes, and no FetchMut
//     handle may be outstanding across it (snapshots are taken at
//     operation boundaries).
//   - Readers that run concurrently with ingest must read through a
//     snapshot; plain Fetch during concurrent writes sees live bytes.
//
// Undo-before-steal: when a WAL is attached (set_wal), any write of a
// dirty frame back to the data file between checkpoints — an eviction
// steal or a checkpoint's own FlushAll — first durably logs the page's
// PRIOR on-disk bytes (a kUndoImage record). Recovery rolls every
// imaged page back to its oldest image, i.e. its content at the last
// completed checkpoint, so logical replay always starts from an exact
// checkpoint state even when a crash preserves unsynced data-file
// writes (kill -9, power loss after the page cache drained).

#ifndef SEGDIFF_STORAGE_BUFFER_POOL_H_
#define SEGDIFF_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "storage/page.h"
#include "storage/pager.h"

namespace segdiff {

class BufferPool;
class Wal;

/// A frozen point-in-time view of the pool, identified by its epoch.
/// Obtained from BufferPool::CreateSnapshot(); releasing the last
/// reference unblocks garbage collection of the page versions it pins.
/// Must not outlive the pool.
class PoolSnapshot {
 public:
  ~PoolSnapshot();
  PoolSnapshot(const PoolSnapshot&) = delete;
  PoolSnapshot& operator=(const PoolSnapshot&) = delete;

  uint64_t epoch() const { return epoch_; }

 private:
  friend class BufferPool;
  PoolSnapshot(BufferPool* pool, uint64_t epoch)
      : pool_(pool), epoch_(epoch) {}

  BufferPool* pool_;
  const uint64_t epoch_;
};

/// Pins one frame (or references one frozen snapshot version) for the
/// handle's lifetime; data() is kPageSize bytes. Snapshot-backed
/// handles are read-only: MarkDirty on one is a programming error.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(PageHandle&& other) noexcept { *this = std::move(other); }
  PageHandle& operator=(PageHandle&& other) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;
  ~PageHandle();

  bool valid() const { return pool_ != nullptr; }
  PageId page_id() const { return page_id_; }
  char* data() { return data_; }
  const char* data() const { return data_; }

  /// Marks the page as modified so eviction/flush writes it back, and
  /// stamps the frame with the WAL's last LSN (the record covering this
  /// change was logged before the mutation).
  void MarkDirty();

  /// Unpins early (also done by the destructor).
  void Release();

 private:
  friend class BufferPool;
  /// Sentinel frame index for snapshot-version-backed handles.
  static constexpr size_t kNoFrame = static_cast<size_t>(-1);

  PageHandle(BufferPool* pool, size_t frame, PageId page_id,
             std::shared_ptr<char[]> buffer)
      : pool_(pool),
        frame_(frame),
        page_id_(page_id),
        buffer_(std::move(buffer)),
        data_(buffer_.get()) {}

  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;  ///< global frame index, or kNoFrame (snapshot)
  PageId page_id_ = kInvalidPageId;
  /// Shares ownership of the bytes: a frame whose buffer is moved into
  /// a version list (or a frame reused after eviction) never yanks the
  /// memory out from under an open handle.
  std::shared_ptr<char[]> buffer_;
  char* data_ = nullptr;
};

/// Hit/miss counters for cache-behaviour experiments. Aggregated over
/// the shards; a consistent snapshot requires no concurrent fetches.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;
  uint64_t cow_copies = 0;  ///< page versions preserved for snapshots
  uint64_t read_failures = 0;  ///< miss-path reads that failed (IO/corrupt)
  /// Frames holding a page buffer. A buffer is allocated on its frame's
  /// first use and kept for the pool's life, so this grows with the
  /// pages the pool has held, up to capacity().
  uint64_t frames_allocated = 0;
};

/// Fixed-capacity LRU page cache, sharded for concurrent readers. A
/// frame's buffer is allocated the first time the frame is used.
class BufferPool {
 public:
  /// Shards with fewer than this many frames are not worth striping;
  /// pools smaller than this use one shard (exact LRU, as before).
  static constexpr size_t kMinFramesPerShard = 16;
  static constexpr size_t kMaxShards = 16;

  /// `pager` must outlive the pool. `capacity_pages` >= 1.
  BufferPool(Pager* pager, size_t capacity_pages);
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns a pinned handle for page `id`, reading it on miss. A miss
  /// goes through Pager::ReadPage, which verifies the page checksum —
  /// a corrupted page surfaces here as Status::Corruption naming the
  /// page, never as a cached frame of garbage. Fails with a
  /// ResourceExhausted-like Internal error when every frame of the
  /// page's shard is pinned.
  Result<PageHandle> Fetch(PageId id);

  /// Fetch for readers on a snapshot: serves the frozen version of the
  /// page when one covers `snapshot`'s epoch, else the live page (which
  /// is then unchanged since the snapshot). Null snapshot = plain
  /// Fetch.
  Result<PageHandle> Fetch(PageId id, const PoolSnapshot* snapshot);

  /// Fetch for writers: identical to Fetch, plus the copy-on-write
  /// redirect that preserves the pre-image for live snapshots before
  /// the caller mutates the page. Every code path that will MarkDirty
  /// the handle must use this.
  Result<PageHandle> FetchMut(PageId id);

  /// Allocates a fresh page via the pager and returns it pinned and
  /// zeroed (already marked dirty).
  Result<PageHandle> AllocatePinned();

  /// Pins a freshly allocated (zeroed, never-fetched) page `id` — the
  /// extent-allocation path. The page must not already be cached.
  /// Fresh pages are invisible to existing snapshots (nothing reachable
  /// from a snapshot's frozen metadata points at them), so they need no
  /// versioning.
  Result<PageHandle> PinFresh(PageId id);

  /// Freezes the current state as a new snapshot epoch. See the class
  /// comment for the caller discipline.
  std::shared_ptr<const PoolSnapshot> CreateSnapshot();

  Pager* pager() { return pager_; }

  /// Attaches the write-ahead log for WAL-before-data on dirty-frame
  /// steals and LSN stamping. Non-owning; may be null (no WAL).
  void set_wal(Wal* wal) { wal_ = wal; }
  Wal* wal() const { return wal_; }

  /// Writes back all dirty frames (keeps contents cached). With a WAL
  /// attached, undo images of the pages' prior on-disk bytes are made
  /// durable first (batched, one log sync per shard) — see the class
  /// comment.
  Status FlushAll();

  /// Flushes then evicts every unpinned frame: the cold-cache knob.
  /// Fails if any frame is still pinned.
  Status DropAll();

  /// Marks the pool as abandoned: the destructor skips its best-effort
  /// FlushAll. Set when the owning database was never successfully
  /// opened or was explicitly abandoned — flushing then could write
  /// garbage (or an empty catalog) over a store that recovery could
  /// otherwise still salvage.
  void set_abandoned() { abandoned_ = true; }

  BufferPoolStats stats() const;
  size_t capacity() const { return frames_.size(); }
  size_t cached_pages() const;
  /// Cached pages modified since they were last written back.
  size_t dirty_pages() const;
  size_t num_shards() const { return shards_.size(); }

 private:
  friend class PageHandle;
  friend class PoolSnapshot;

  struct Frame {
    PageId page_id = kInvalidPageId;
    int pin_count = 0;
    bool dirty = false;
    /// WAL LSN of the last record covering a change to this frame;
    /// FlushFrame forces the log durable through it before writing the
    /// page back (WAL-before-data). In practice the sync is a no-op:
    /// the undo image logged by the same flush postdates rec_lsn, so
    /// its EnsureDurable already covered it.
    uint64_t rec_lsn = 0;
    std::shared_ptr<char[]> data;
    std::list<size_t>::iterator lru_pos;  // valid iff in_lru
    bool in_lru = false;
  };

  /// One frozen pre-image of a page. Covers every snapshot epoch in
  /// (previous entry's hi, hi]: it was the page's content when the
  /// first post-`hi`-snapshot write arrived.
  struct PageVersion {
    uint64_t hi = 0;
    std::shared_ptr<char[]> image;
  };

  /// One stripe: a slice of frames_ plus all bookkeeping for the pages
  /// that hash to it. Everything below `mu` is guarded by it.
  struct Shard {
    mutable std::mutex mu;
    std::vector<size_t> free_frames;      ///< global frame indices
    std::list<size_t> lru;                ///< front == most recently used
    std::unordered_map<PageId, size_t> page_table;
    /// Frozen pre-images, per page, in increasing-`hi` order.
    std::unordered_map<PageId, std::vector<PageVersion>> versions;
    BufferPoolStats stats;
  };

  Shard& ShardOf(PageId id) { return shards_[id % shards_.size()]; }
  const Shard& ShardOf(PageId id) const {
    return shards_[id % shards_.size()];
  }

  void Unpin(size_t frame);
  Status FlushFrame(Frame& frame, Shard& shard, bool log_image);
  /// Pins page `id` in `shard` (cache hit or miss+read) and returns the
  /// frame index. Caller holds shard.mu; the snapshot read path relies
  /// on version lookup and this pin happening under one mutex hold.
  Result<size_t> PinFrameLocked(PageId id, Shard& shard);
  /// Finds a frame for a new page in `shard`: free frame or LRU victim.
  /// Caller holds shard.mu.
  Result<size_t> GrabFrame(Shard& shard);
  Result<PageHandle> PinFreshLocked(PageId id, Shard& shard);
  /// The copy-on-write redirect: preserves `frame`'s buffer as a
  /// version when a live snapshot still needs its current content.
  /// Caller holds shard.mu and is about to hand out a mutable handle.
  void PreserveVersionLocked(Shard& shard, Frame& frame);
  void ReleaseSnapshot(uint64_t epoch);

  Pager* pager_;
  Wal* wal_ = nullptr;  ///< non-owning; see set_wal
  std::vector<Frame> frames_;
  std::vector<Shard> shards_;
  bool abandoned_ = false;

  /// Snapshot bookkeeping. epoch_counter_ only grows; max_live_epoch_
  /// is the largest live epoch (0 = none), read lock-free on the write
  /// fast path.
  std::mutex snap_mu_;
  std::multiset<uint64_t> live_epochs_;
  std::atomic<uint64_t> epoch_counter_{0};
  std::atomic<uint64_t> max_live_epoch_{0};
};

}  // namespace segdiff

#endif  // SEGDIFF_STORAGE_BUFFER_POOL_H_
