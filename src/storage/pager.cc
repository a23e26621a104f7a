#include "storage/pager.h"

#include <time.h>

#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/coding.h"
#include "common/crc32c.h"

namespace segdiff {
namespace {

constexpr uint32_t kFileMagic = 0x4D494442;    // "MIDB"
constexpr uint32_t kTrailerMagic = 0x50474353;  // "PGCS"

/// Computes and stores the trailer of a page about to be written.
void StampTrailer(char* page) {
  EncodeFixed32(page + kPageCapacity, Crc32c(page, kPageCapacity));
  EncodeFixed32(page + kPageCapacity + 4, kTrailerMagic);
}

}  // namespace

Result<std::unique_ptr<Pager>> Pager::Open(const std::string& path,
                                           bool create, Vfs* vfs) {
  if (vfs == nullptr) {
    vfs = Vfs::Default();
  }
  const bool existed = path != ":memory:" && vfs->FileExists(path);
  SEGDIFF_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> file,
                           vfs->OpenFile(path, create));
  // Transient failures (device momentarily resetting) retry with bounded
  // backoff instead of failing the page IO outright; permanent and
  // no-space errors pass straight through.
  file = WithRetry(std::move(file));
  SEGDIFF_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  if (size == 0) {
    // Fresh file: write the header page.
    std::unique_ptr<Pager> pager(
        new Pager(path, std::move(file), 1, vfs, /*created=*/!existed));
    pager->unsynced_writes_.store(true);
    Status status = pager->WriteHeader();
    if (!status.ok()) {
      return status;
    }
    return pager;
  }
  if (size < kPageSize) {
    return Status::Corruption("file smaller than the header page: " + path);
  }
  // A non-page-aligned tail is tolerated: a crash mid-WritePage can leave
  // a torn partial page at the end of the file, but only past the header's
  // page count (checked below) — recovery never reads it and the next
  // extension overwrites it.
  char header[kPageSize];
  SEGDIFF_RETURN_IF_ERROR(file->Read(0, kPageSize, header));
  if (DecodeFixed32(header) != kFileMagic) {
    return Status::Corruption("bad magic: " + path);
  }
  const uint32_t version = DecodeFixed32(header + 4);
  if (version != kFormatChecksummed) {
    return Status::Corruption("unsupported version " +
                              std::to_string(version) + ": " + path);
  }
  const uint64_t page_count = DecodeFixed64(header + 8);
  if (page_count * kPageSize > size) {
    return Status::Corruption("header page count exceeds file: " + path);
  }
  // Checked before any Pager exists, so a damaged header fails the open
  // with the file untouched.
  SEGDIFF_RETURN_IF_ERROR(VerifyPageBuffer(path, 0, header));
  std::unique_ptr<Pager> pager(
      new Pager(path, std::move(file), page_count, vfs, /*created=*/false));
  // Pre-WAL v2 files carry zeros here, which reads back as "nothing
  // applied" — exactly right.
  pager->applied_lsn_.store(DecodeFixed64(header + 16));
  return pager;
}

void Pager::SetSimulatedReadLatency(uint64_t seq_ns, uint64_t random_ns) {
  sim_seq_read_ns_ = seq_ns;
  sim_random_read_ns_ = random_ns;
}

Status Pager::VerifyPageBuffer(const std::string& path, PageId id,
                               const char* buf) {
  const uint32_t magic = DecodeFixed32(buf + kPageCapacity + 4);
  if (magic != kTrailerMagic) {
    return Status::Corruption("page " + std::to_string(id) + " of " + path +
                              " has no valid trailer (torn or zeroed page)");
  }
  const uint32_t stored = DecodeFixed32(buf + kPageCapacity);
  const uint32_t computed = Crc32c(buf, kPageCapacity);
  if (stored != computed) {
    char detail[64];
    std::snprintf(detail, sizeof(detail), " (stored 0x%08x, computed 0x%08x)",
                  stored, computed);
    return Status::Corruption("checksum mismatch on page " +
                              std::to_string(id) + " of " + path + detail);
  }
  return Status::OK();
}

Status Pager::ReadPage(PageId id, char* buf) {
  if (id >= page_count_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("read past end of file: page " +
                                   std::to_string(id));
  }
  if (sim_seq_read_ns_ != 0 || sim_random_read_ns_ != 0) {
    // With concurrent readers the "previous read" is whichever thread
    // read last — exactly how a shared disk head behaves.
    const PageId prev = last_read_page_.load(std::memory_order_relaxed);
    const bool sequential = prev != kInvalidPageId && id == prev + 1;
    const uint64_t ns = sequential ? sim_seq_read_ns_ : sim_random_read_ns_;
    if (ns >= 100000) {
      const timespec delay{static_cast<time_t>(ns / 1000000000ull),
                           static_cast<long>(ns % 1000000000ull)};
      ::nanosleep(&delay, nullptr);
    } else if (ns > 0) {
      // Spin for sub-100us delays; nanosleep overshoots badly there.
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
      while (std::chrono::steady_clock::now() < until) {
      }
    }
  }
  last_read_page_.store(id, std::memory_order_relaxed);
  SEGDIFF_RETURN_IF_ERROR(file_->Read(id * kPageSize, kPageSize, buf));
  if (verify_checksums_) {
    Status status = VerifyPageBuffer(path_, id, buf);
    if (status.IsCorruption()) {
      // Remember the bad page: scans that opt into partial results route
      // around quarantined ranges instead of failing the whole query.
      QuarantinePage(id);
    }
    return status;
  }
  return Status::OK();
}

void Pager::QuarantinePage(PageId id) {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  quarantined_.insert(id);
}

bool Pager::IsQuarantined(PageId id) const {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  return quarantined_.count(id) != 0;
}

std::vector<PageId> Pager::QuarantinedPages() const {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  return std::vector<PageId>(quarantined_.begin(), quarantined_.end());
}

uint64_t Pager::quarantined_count() const {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  return quarantined_.size();
}

Status Pager::ReadPageRaw(PageId id, char* buf) {
  if (id >= page_count_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("read past end of file: page " +
                                   std::to_string(id));
  }
  return file_->Read(id * kPageSize, kPageSize, buf);
}

Status Pager::WritePage(PageId id, const char* buf) {
  if (id >= page_count_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("write past end of file: page " +
                                   std::to_string(id));
  }
  // Stamp the trailer into a private copy: `buf` (typically a pinned
  // buffer-pool frame) stays logically const and concurrent readers of
  // the frame never observe a half-written trailer.
  char page[kPageSize];
  std::memcpy(page, buf, kPageCapacity);
  StampTrailer(page);
  unsynced_writes_.store(true);
  return file_->Write(id * kPageSize, page, kPageSize);
}

Result<PageId> Pager::AllocatePage() { return AllocateExtent(1); }

Result<PageId> Pager::AllocateExtent(size_t n) {
  if (n == 0) {
    return Status::InvalidArgument("empty extent");
  }
  std::lock_guard<std::mutex> lock(alloc_mu_);
  const PageId id = page_count_.load(std::memory_order_relaxed);
  // Zero pages with valid trailers: a page that is allocated, counted by
  // a later checkpoint, but never written still verifies on read.
  std::vector<char> zero(n * kPageSize, 0);
  StampTrailer(zero.data());
  for (size_t i = 1; i < n; ++i) {
    std::memcpy(zero.data() + i * kPageSize + kPageCapacity,
                zero.data() + kPageCapacity, kPageTrailerBytes);
  }
  unsynced_writes_.store(true);
  Status status = file_->Write(id * kPageSize, zero.data(), zero.size());
  if (!status.ok()) {
    // No-space (or any failed) extension must not leave a half-grown
    // file: page_count_ never advanced, so readers cannot see the new
    // pages, and truncating back discards whatever partial extent the
    // failed write may have persisted. The store stays exactly as it
    // was — acked data remains durable and readable.
    file_->Truncate(id * kPageSize);  // best-effort; count is authoritative
    return status;
  }
  page_count_.store(id + n, std::memory_order_release);
  return id;
}

Status Pager::WriteHeader() {
  char header[kPageSize];
  std::memset(header, 0, sizeof(header));
  EncodeFixed32(header, kFileMagic);
  EncodeFixed32(header + 4, kFormatChecksummed);
  EncodeFixed64(header + 8, page_count_.load());
  EncodeFixed64(header + 16, applied_lsn_.load());
  StampTrailer(header);
  return file_->Write(0, header, kPageSize);
}

Status Pager::Sync() {
  // Cleared before the fsync, so a write racing it sets the flag again.
  unsynced_writes_.store(false);
  Status status = [this] {
    SEGDIFF_RETURN_IF_ERROR(WriteHeader());
    SEGDIFF_RETURN_IF_ERROR(file_->Sync());
    if (needs_dir_sync_) {
      // First sync after creating the file: persist the directory entry
      // too, or a crash here could lose the whole store on some file
      // systems even though the data was fsynced.
      SEGDIFF_RETURN_IF_ERROR(vfs_->SyncDir(path_));
      needs_dir_sync_ = false;
    }
    return Status::OK();
  }();
  if (!status.ok()) {
    unsynced_writes_.store(true);
  }
  return status;
}

Result<ScrubReport> Pager::Scrub() {
  ScrubReport report;
  const uint64_t count = page_count_.load(std::memory_order_acquire);
  std::vector<char> buf(kPageSize);
  for (PageId id = 0; id < count; ++id) {
    ++report.pages_checked;
    Status status = file_->Read(id * kPageSize, kPageSize, buf.data());
    if (status.ok()) {
      status = VerifyPageBuffer(path_, id, buf.data());
    }
    if (!status.ok()) {
      report.corrupt.push_back(ScrubIssue{id, status.ToString()});
      QuarantinePage(id);
    }
  }
  return report;
}

}  // namespace segdiff
