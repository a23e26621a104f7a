// Pager: page-granular IO over a single database file.
//
// File layout: page 0 is the header (magic, version, page count); all
// other pages are opaque to the pager except for their trailer. All IO
// goes through a Vfs (common/vfs.h), which centralizes short-IO/EINTR
// handling and lets tests inject faults.
//
// Durability & integrity (file format v2):
//   - every page ends in an 8-byte trailer: CRC32C of the payload plus a
//     trailer magic (see storage/page.h). WritePage/AllocateExtent stamp
//     it; ReadPage verifies it and returns Status::Corruption naming the
//     page on mismatch — a flipped bit on disk can never surface as a
//     silently wrong query result.
//   - Sync() persists the header and fsyncs; after creating a file it
//     also fsyncs the parent directory once, so a crash right after
//     Create cannot lose the store's directory entry. Sync is the only
//     writer of the header of an existing file: destroying a Pager
//     writes nothing, so the page count and applied LSN on disk move
//     only at a checkpoint.
// A header naming any other version (such as the trailer-less v1)
// fails Open with Corruption("unsupported version N"), and a header
// whose own checksum fails fails it with Corruption naming page 0; in
// both cases the file is left untouched.

#ifndef SEGDIFF_STORAGE_PAGER_H_
#define SEGDIFF_STORAGE_PAGER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/vfs.h"
#include "storage/page.h"

namespace segdiff {

/// One unreadable page found by Pager::Scrub.
struct ScrubIssue {
  PageId page = kInvalidPageId;
  std::string message;
};

/// Checksum health of a whole file (segdiff_cli verify --scrub).
struct ScrubReport {
  uint64_t pages_checked = 0;
  std::vector<ScrubIssue> corrupt;

  bool clean() const { return corrupt.empty(); }
};

/// Owns the database file and the page allocation counter.
/// Concurrent ReadPage/WritePage calls are safe (positional IO shares no
/// seek state); allocation and header writes serialize on an internal
/// mutex.
class Pager {
 public:
  /// The one on-disk format version (header and page trailers).
  static constexpr uint32_t kFormatChecksummed = 2;

  /// Opens (or creates, when `create` is true and the file is missing) a
  /// database file, validating or writing the header page. The special
  /// path ":memory:" creates an anonymous memory-backed database that
  /// disappears when the pager is destroyed. `vfs` (nullptr = the
  /// default POSIX Vfs) must outlive the pager.
  static Result<std::unique_ptr<Pager>> Open(const std::string& path,
                                             bool create,
                                             Vfs* vfs = nullptr);

  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  /// Reads page `id` into `buf` (kPageSize bytes), verifying its
  /// checksum (see set_verify_checksums).
  Status ReadPage(PageId id, char* buf);

  /// Reads page `id` without checksum verification or simulated latency:
  /// the buffer pool's undo-image capture must snapshot the on-disk
  /// bytes as they are, even when a crash left the page torn.
  Status ReadPageRaw(PageId id, char* buf);

  /// Simulated storage latency, added to every ReadPage: `seq_ns` when
  /// the read continues the previous one (id == last id + 1), else
  /// `random_ns`. Models rotating-disk behaviour (the paper's testbed
  /// was a 2007 SATA disk with cold OS caches) on machines whose /tmp
  /// is RAM-backed; 0/0 (default) disables it. See DESIGN.md.
  void SetSimulatedReadLatency(uint64_t seq_ns, uint64_t random_ns);

  /// Writes `buf` (kPageSize bytes) to page `id`, stamping the page
  /// trailer; the last kPageTrailerBytes of `buf` are ignored.
  Status WritePage(PageId id, const char* buf);

  /// Extends the file by one zeroed page and returns its id.
  Result<PageId> AllocatePage();

  /// Extends the file by `n` zeroed pages and returns the first id.
  /// Storage objects allocate in extents so their pages stay contiguous
  /// on disk (sequential scans then read sequentially even when several
  /// objects grow concurrently). Each fresh page is written with a valid
  /// trailer, so an allocated-but-never-written page still verifies.
  Result<PageId> AllocateExtent(size_t n);

  /// Pages in the file, including header.
  uint64_t page_count() const { return page_count_.load(); }

  /// WAL LSN through which this file's contents are known complete:
  /// every redo record with lsn <= applied_lsn() is reflected in the
  /// pages, so recovery replays only what lies beyond it. Stored in
  /// the header page; updated by fuzzy checkpoints (set, then Sync).
  /// 0 on pre-WAL files — their whole WAL (if any) replays.
  uint64_t applied_lsn() const { return applied_lsn_.load(); }
  void set_applied_lsn(uint64_t lsn) { applied_lsn_.store(lsn); }

  /// Bytes on disk (page_count * kPageSize).
  uint64_t FileSizeBytes() const { return page_count_.load() * kPageSize; }

  /// Persists the header (page count) and fsyncs; after file creation,
  /// also fsyncs the parent directory (once).
  Status Sync();

  /// True when the file has been written (a page, an extent, or the
  /// header of a fresh file) since the last successful Sync: a
  /// checkpoint that finds this false, and nothing else to persist,
  /// skips its IO.
  bool has_unsynced_writes() const { return unsynced_writes_.load(); }

  /// Walks every page and verifies its checksum, collecting (not
  /// failing on) unreadable pages. Reads bypass simulated latency and
  /// always verify, regardless of set_verify_checksums. Corrupt pages
  /// are quarantined as a side effect.
  Result<ScrubReport> Scrub();

  /// Marks page `id` unreadable. Quarantined pages stay quarantined for
  /// the life of this pager (repair rewrites into a fresh file);
  /// ReadPage quarantines corrupt pages automatically, so a scan that
  /// trips over a bad page can ask afterwards which ranges to route
  /// around.
  void QuarantinePage(PageId id);
  bool IsQuarantined(PageId id) const;
  /// Snapshot of the quarantined page ids, sorted.
  std::vector<PageId> QuarantinedPages() const;
  uint64_t quarantined_count() const;

  const std::string& path() const { return path_; }

  /// The Vfs this pager's IO goes through (never null).
  Vfs* vfs() const { return vfs_; }

  /// Disables checksum verification on ReadPage (benchmarks measuring
  /// verification overhead; scrubbing still verifies). Writes always
  /// stamp trailers — a file is never left with stale checksums.
  void set_verify_checksums(bool verify) { verify_checksums_ = verify; }
  bool verify_checksums() const { return verify_checksums_; }

 private:
  Pager(std::string path, std::unique_ptr<RandomAccessFile> file,
        uint64_t page_count, Vfs* vfs, bool created)
      : path_(std::move(path)),
        file_(std::move(file)),
        vfs_(vfs),
        page_count_(page_count),
        needs_dir_sync_(created) {}

  Status WriteHeader();
  /// Checksum check for one page of the file at `path`, already read
  /// into `buf`.
  static Status VerifyPageBuffer(const std::string& path, PageId id,
                                 const char* buf);

  std::string path_;
  std::unique_ptr<RandomAccessFile> file_;
  Vfs* vfs_;  ///< non-owning; outlives the pager
  std::atomic<uint64_t> page_count_{0};
  std::atomic<uint64_t> applied_lsn_{0};
  std::atomic<bool> unsynced_writes_{false};  ///< see has_unsynced_writes
  bool verify_checksums_ = true;
  /// The file was created by this pager and its directory entry has not
  /// been fsynced yet; cleared by the first successful Sync.
  bool needs_dir_sync_ = false;
  uint64_t sim_seq_read_ns_ = 0;
  uint64_t sim_random_read_ns_ = 0;
  std::atomic<PageId> last_read_page_{kInvalidPageId};
  std::mutex alloc_mu_;  ///< guards file extension + header writes
  mutable std::mutex quarantine_mu_;
  std::set<PageId> quarantined_;  ///< guarded by quarantine_mu_
};

}  // namespace segdiff

#endif  // SEGDIFF_STORAGE_PAGER_H_
