#include "storage/wal.h"

#include <chrono>
#include <cstring>
#include <utility>

#include "common/bytes.h"
#include "common/coding.h"
#include "common/crc32c.h"
#include "storage/page.h"

namespace segdiff {

namespace {

void EncodeWalHeader(char* buf, uint64_t start_lsn) {
  std::memset(buf, 0, kWalHeaderSize);
  EncodeFixed32(buf, kWalMagic);
  EncodeFixed32(buf + 4, kWalVersion);
  EncodeFixed64(buf + 8, start_lsn);
  EncodeFixed64(buf + 16, 0);  // reserved
  EncodeFixed32(buf + 24, Crc32c(buf, 24));
}

/// Everything a forward scan of a WAL file learns.
struct WalScanResult {
  bool exists = false;
  bool header_ok = false;
  /// File too short to hold a header: a crash tore the creation; safe
  /// to treat as empty (nothing was ever acknowledged from it).
  bool short_header = false;
  uint64_t start_lsn = 0;
  uint64_t file_size = 0;
  uint64_t valid_end = 0;  ///< offset just past the last valid frame
  uint64_t last_lsn = 0;   ///< 0 when no valid frames
  std::vector<WalRecord> records;
  std::string error;  ///< header diagnosis when !header_ok
};

Status ScanWalFile(Vfs* vfs, const std::string& path, WalScanResult* out) {
  *out = WalScanResult();
  if (!vfs->FileExists(path)) return Status::OK();
  out->exists = true;
  SEGDIFF_ASSIGN_OR_RETURN(auto file, vfs->OpenFile(path, /*create=*/false));
  SEGDIFF_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  out->file_size = size;
  if (size < kWalHeaderSize) {
    out->short_header = true;
    out->error = "WAL shorter than its header (torn creation)";
    return Status::OK();
  }
  std::string data(size, '\0');
  SEGDIFF_RETURN_IF_ERROR(file->Read(0, size, data.data()));

  if (DecodeFixed32(data.data()) != kWalMagic) {
    out->error = "bad WAL magic";
    return Status::OK();
  }
  uint32_t version = DecodeFixed32(data.data() + 4);
  if (version != kWalVersion) {
    out->error = "unsupported WAL version " + std::to_string(version);
    return Status::OK();
  }
  if (DecodeFixed32(data.data() + 24) != Crc32c(data.data(), 24)) {
    out->error = "WAL header checksum mismatch";
    return Status::OK();
  }
  out->header_ok = true;
  out->start_lsn = DecodeFixed64(data.data() + 8);
  out->valid_end = kWalHeaderSize;

  // Frames are consecutive from start_lsn within a generation; any
  // break (short frame, gap, oversized length, bad CRC) is the torn
  // tail — stop there.
  uint64_t expected_lsn = out->start_lsn;
  uint64_t off = kWalHeaderSize;
  while (off + kWalFrameOverhead <= size) {
    const char* frame = data.data() + off;
    uint64_t lsn = DecodeFixed64(frame);
    uint32_t len = DecodeFixed32(frame + 8);
    if (lsn != expected_lsn || len > kWalMaxPayload) break;
    uint64_t frame_size = kWalFrameOverhead + len;
    if (off + frame_size > size) break;
    uint32_t crc = DecodeFixed32(frame + kWalFrameHeaderSize + len);
    if (crc != Crc32c(frame, kWalFrameHeaderSize + len)) break;
    uint8_t raw_type = static_cast<uint8_t>(frame[12]);
    if (raw_type < static_cast<uint8_t>(WalRecordType::kObservation) ||
        raw_type > static_cast<uint8_t>(WalRecordType::kUndoImage)) {
      break;
    }
    WalRecord rec;
    rec.lsn = lsn;
    rec.type = static_cast<WalRecordType>(raw_type);
    rec.payload.assign(frame + kWalFrameHeaderSize, len);
    out->records.push_back(std::move(rec));
    out->last_lsn = lsn;
    off += frame_size;
    out->valid_end = off;
    ++expected_lsn;
  }
  return Status::OK();
}

}  // namespace

Result<WalObservation> DecodeWalObservation(const std::string& payload) {
  ByteReader r(payload);
  WalObservation obs;
  SEGDIFF_ASSIGN_OR_RETURN(obs.t, r.F64());
  SEGDIFF_ASSIGN_OR_RETURN(obs.v, r.F64());
  SEGDIFF_RETURN_IF_ERROR(r.End());
  return obs;
}

Result<WalRowAppend> DecodeWalRowAppend(
    const std::string& payload,
    const std::function<Result<size_t>(const std::string& table)>&
        row_bytes) {
  ByteReader r(payload);
  WalRowAppend row;
  SEGDIFF_ASSIGN_OR_RETURN(row.table, r.Str());
  SEGDIFF_ASSIGN_OR_RETURN(row.ordinal, r.U64());
  SEGDIFF_ASSIGN_OR_RETURN(const size_t width, row_bytes(row.table));
  SEGDIFF_ASSIGN_OR_RETURN(row.row, r.Bytes(width));
  SEGDIFF_RETURN_IF_ERROR(r.End());
  return row;
}

Result<WalUndoImage> DecodeWalUndoImage(const std::string& payload) {
  ByteReader r(payload);
  WalUndoImage image;
  SEGDIFF_ASSIGN_OR_RETURN(image.page_id, r.U64());
  SEGDIFF_ASSIGN_OR_RETURN(image.image, r.Bytes(kPageCapacity));
  SEGDIFF_RETURN_IF_ERROR(r.End());
  return image;
}

Wal::Wal(Vfs* vfs, std::string path, const WalOptions& options)
    : vfs_(vfs), path_(std::move(path)), window_ms_(options.group_commit_ms) {}

Result<std::unique_ptr<Wal>> Wal::Open(Vfs* vfs, const std::string& db_path,
                                       const WalOptions& options,
                                       uint64_t min_next_lsn) {
  if (vfs == nullptr) vfs = Vfs::Default();
  auto wal = std::unique_ptr<Wal>(new Wal(vfs, PathFor(db_path), options));

  WalScanResult scan;
  SEGDIFF_RETURN_IF_ERROR(ScanWalFile(vfs, wal->path_, &scan));
  if (scan.exists && !scan.header_ok && !scan.short_header) {
    // The log may hold acknowledged records we cannot read back;
    // silently dropping it would be silent data loss.
    return Status::Corruption(
        "WAL " + wal->path_ + " is unreadable (" + scan.error +
        "); if the log is known stale, remove the file and reopen");
  }

  uint64_t next = min_next_lsn > 0 ? min_next_lsn : 1;
  if (scan.exists && scan.header_ok && min_next_lsn > 1 &&
      scan.start_lsn > min_next_lsn) {
    // A non-fresh data file (it has applied LSNs) paired with a log
    // whose generation starts beyond applied + 1: earlier generations
    // covered LSNs this data file never applied — a mismatched or
    // foreign sidecar. Adopting it would silently assume the records
    // in (applied, start_lsn) reached the data file; refuse loudly,
    // like the unreadable-header case.
    return Status::Corruption(
        "WAL " + wal->path_ + " starts at LSN " +
        std::to_string(scan.start_lsn) +
        " but the data file has only applied through LSN " +
        std::to_string(min_next_lsn - 1) +
        " (mismatched or foreign log); if the log is known stale, remove "
        "the file and reopen");
  }
  if (scan.exists && scan.header_ok) {
    // Keep the handle; the torn tail (if any) is trimmed before the
    // first flush write — Open itself must not modify the file.
    SEGDIFF_ASSIGN_OR_RETURN(wal->file_,
                             vfs->OpenFile(wal->path_, /*create=*/false));
    wal->file_ = WithRetry(std::move(wal->file_));
    wal->file_fresh_ = false;
    wal->tail_offset_ = scan.valid_end;
    if (scan.valid_end < scan.file_size) {
      wal->need_truncate_ = true;
      wal->truncate_to_ = scan.valid_end;
      // Never trimmed silently: the count surfaces in WalInfo/stats so
      // an operator can see that a crash tore off unacknowledged frames.
      wal->trimmed_tail_bytes_ = scan.file_size - scan.valid_end;
    }
    wal->start_lsn_.store(scan.start_lsn);
    if (scan.last_lsn + 1 > next) next = scan.last_lsn + 1;
    if (scan.start_lsn > next) next = scan.start_lsn;
    for (auto& rec : scan.records) {
      if (rec.lsn >= min_next_lsn) wal->recovered_.push_back(std::move(rec));
    }
  } else {
    // Missing (or torn-creation) file: created (or trimmed) lazily by
    // the first flush or Reset.
    wal->start_lsn_.store(next);
    if (scan.exists) {
      wal->file_fresh_ = true;
      wal->need_truncate_ = true;
      wal->truncate_to_ = 0;
      wal->trimmed_tail_bytes_ = scan.file_size;  // torn creation
    }
  }
  wal->next_lsn_ = next;
  wal->buffered_lsn_.store(next - 1);
  wal->durable_lsn_.store(next - 1);

  if (wal->window_ms_ > 0) {
    wal->flusher_ = std::thread([w = wal.get()] { w->FlusherLoop(); });
  }
  return wal;
}

Wal::~Wal() { Close(); }

Status Wal::Close() {
  if (flusher_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_flusher_ = true;
    }
    cv_.notify_all();
    flusher_.join();
  }
  std::unique_lock<std::mutex> lock(mu_);
  while (flushing_) cv_.wait(lock);
  if (pending_.empty()) return flush_error_;
  return FlushLocked(lock);
}

void Wal::FlusherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_flusher_) {
    cv_.wait_for(lock, std::chrono::milliseconds(window_ms_));
    if (stop_flusher_) break;
    if (!pending_.empty() && flush_error_.ok()) {
      FlushLocked(lock);  // sticky error is surfaced to the next append
    }
  }
}

Status Wal::EnsureFileLocked() {
  if (file_ == nullptr) {
    SEGDIFF_ASSIGN_OR_RETURN(file_, vfs_->OpenFile(path_, /*create=*/true));
    file_ = WithRetry(std::move(file_));
    need_dir_sync_ = true;
  }
  if (need_truncate_) {
    SEGDIFF_RETURN_IF_ERROR(file_->Truncate(truncate_to_));
    need_truncate_ = false;
    if (truncate_to_ < kWalHeaderSize) file_fresh_ = true;
  }
  if (file_fresh_) {
    char header[kWalHeaderSize];
    EncodeWalHeader(header, start_lsn_.load());
    SEGDIFF_RETURN_IF_ERROR(file_->Write(0, header, kWalHeaderSize));
    tail_offset_ = kWalHeaderSize;
    file_fresh_ = false;
  }
  return Status::OK();
}

Status Wal::FlushLocked(std::unique_lock<std::mutex>& lock) {
  // One flusher owns the file tail at a time. Waiting also covers the
  // common Sync/EnsureDurable case where the in-flight batch holds the
  // caller's LSN: once it publishes, the early return below fires.
  while (flushing_) cv_.wait(lock);
  if (flush_error_.ok() && pending_.empty() &&
      durable_lsn_.load() == buffered_lsn_.load()) {
    return Status::OK();
  }
  // A prior failure does not bar a foreground retry: the unflushed
  // frames are still in pending_ and tail_offset_ was not advanced, so
  // re-writing and re-syncing the same bytes (overwriting any partial
  // tail the failure left) restores durability without ever having
  // falsely acknowledged anything — every failed flush was reported.
  Status st = EnsureFileLocked();
  std::string batch;
  uint64_t batch_records = 0;
  uint64_t batch_last_lsn = 0;
  if (st.ok()) {
    // Swap the batch out and do the write + fsync without the mutex:
    // concurrent appends buffer into the (now empty) pending_ and are
    // picked up by the next group commit instead of blocking for the
    // full sync.
    batch.swap(pending_);
    batch_records = pending_records_;
    pending_records_ = 0;
    batch_last_lsn = buffered_lsn_.load();
    const uint64_t write_off = tail_offset_;
    const bool dir_sync = need_dir_sync_;
    flushing_ = true;
    inflight_bytes_ = batch.size();
    lock.unlock();
    if (!batch.empty()) {
      st = file_->Write(write_off, batch.data(), batch.size());
    }
    if (st.ok()) st = file_->Sync();
    if (st.ok() && dir_sync) st = vfs_->SyncDir(path_);
    lock.lock();
    flushing_ = false;
    inflight_bytes_ = 0;
    if (st.ok() && dir_sync) need_dir_sync_ = false;
  }
  if (!st.ok()) {
    // Put the unflushed batch back in front of whatever was appended
    // while the mutex was dropped, so a foreground retry re-writes
    // exactly the same bytes at the same offset.
    if (!batch.empty()) pending_.insert(0, batch);
    pending_records_ += batch_records;
    // Sticky until a flush succeeds: while durability is broken no new
    // append may be buffered as if it could still become durable (the
    // background flusher never retries; only explicit Sync/EnsureDurable
    // calls do, and they surface every failure to the caller).
    // WithMessage keeps the error class: a no-space flush failure must
    // reach Database as no-space so it can flip into degraded mode
    // instead of treating a full disk as a permanently broken device.
    flush_error_ = st.WithMessage("WAL flush failed (" + path_ +
                                  "): " + st.ToString());
    cv_.notify_all();
    return flush_error_;
  }
  flush_error_ = Status::OK();
  ++stats_.fsyncs;
  if (batch_records >= 2) ++stats_.group_commits;
  stats_.bytes_written += batch.size();
  tail_offset_ += batch.size();
  durable_lsn_.store(batch_last_lsn);
  cv_.notify_all();
  return Status::OK();
}

Status Wal::AppendRecord(WalRecordType type, const char* payload, size_t n,
                         uint64_t* lsn) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!flush_error_.ok()) return flush_error_;
  uint64_t assigned = next_lsn_++;
  size_t base = pending_.size();
  pending_.resize(base + kWalFrameOverhead + n);
  char* frame = pending_.data() + base;
  EncodeFixed64(frame, assigned);
  EncodeFixed32(frame + 8, static_cast<uint32_t>(n));
  frame[12] = static_cast<char>(type);
  if (n > 0) std::memcpy(frame + kWalFrameHeaderSize, payload, n);
  EncodeFixed32(frame + kWalFrameHeaderSize + n,
                Crc32c(frame, kWalFrameHeaderSize + n));
  buffered_lsn_.store(assigned);
  ++stats_.appends;
  ++pending_records_;
  if (window_ms_ <= 0) {
    Status st = FlushLocked(lock);
    if (!st.ok()) return st;
  }
  *lsn = assigned;
  return Status::OK();
}

Result<uint64_t> Wal::AppendObservation(double t, double v) {
  char payload[16];
  EncodeDouble(payload, t);
  EncodeDouble(payload + 8, v);
  uint64_t lsn = 0;
  SEGDIFF_RETURN_IF_ERROR(AppendRecord(WalRecordType::kObservation, payload,
                                       sizeof(payload), &lsn));
  return lsn;
}

Result<uint64_t> Wal::AppendFlushMarker() {
  uint64_t lsn = 0;
  SEGDIFF_RETURN_IF_ERROR(
      AppendRecord(WalRecordType::kFlush, nullptr, 0, &lsn));
  return lsn;
}

Result<uint64_t> Wal::AppendRowAppend(const std::string& table,
                                      uint64_t ordinal, const char* row,
                                      size_t row_len) {
  if (table.size() > UINT16_MAX) {
    return Status::InvalidArgument("table name too long for WAL record");
  }
  ByteWriter payload;
  payload.Str(table);
  payload.U64(ordinal);
  payload.Bytes(row, row_len);
  uint64_t lsn = 0;
  SEGDIFF_RETURN_IF_ERROR(AppendRecord(WalRecordType::kRowAppend,
                                       payload.str().data(),
                                       payload.str().size(), &lsn));
  return lsn;
}

Result<uint64_t> Wal::AppendUndoImage(uint64_t page_id, const char* data,
                                      size_t n) {
  ByteWriter payload;
  payload.U64(page_id);
  payload.Bytes(data, n);
  uint64_t lsn = 0;
  SEGDIFF_RETURN_IF_ERROR(AppendRecord(WalRecordType::kUndoImage,
                                       payload.str().data(),
                                       payload.str().size(), &lsn));
  return lsn;
}

Status Wal::Sync() {
  std::unique_lock<std::mutex> lock(mu_);
  return FlushLocked(lock);
}

Status Wal::EnsureDurable(uint64_t lsn) {
  if (lsn == 0 || lsn <= durable_lsn_.load()) return Status::OK();
  return Sync();
}

Status Wal::Reset(uint64_t new_start_lsn) {
  std::unique_lock<std::mutex> lock(mu_);
  // An in-flight group commit owns the file tail; truncating under it
  // would corrupt the log.
  while (flushing_) cv_.wait(lock);
  if (!flush_error_.ok()) return flush_error_;
  if (!pending_.empty()) {
    return Status::Internal("WAL reset with unflushed records");
  }
  start_lsn_.store(new_start_lsn);
  if (new_start_lsn > next_lsn_) next_lsn_ = new_start_lsn;
  file_fresh_ = true;
  // Never materialized: nothing on disk to truncate.
  if (file_ == nullptr && !need_truncate_) return Status::OK();
  // Whatever is on disk — the previous generation, or a torn creation
  // that no flush has opened yet — is cut to an empty file under a
  // fresh header. A failed step stays pending for the next flush.
  need_truncate_ = true;
  truncate_to_ = 0;
  Status st = EnsureFileLocked();
  if (st.ok()) st = file_->Sync();
  if (!st.ok()) {
    flush_error_ = st.WithMessage("WAL reset failed (" + path_ +
                                  "): " + st.ToString());
    return flush_error_;
  }
  ++stats_.fsyncs;
  return Status::OK();
}

bool Wal::CleanAt(uint64_t applied_lsn) const {
  std::lock_guard<std::mutex> lock(mu_);
  return buffered_lsn_.load() == applied_lsn && !need_truncate_ &&
         flush_error_.ok();
}

uint64_t Wal::SizeBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr && pending_.empty() && inflight_bytes_ == 0) return 0;
  uint64_t base = file_ == nullptr ? kWalHeaderSize : tail_offset_;
  // An in-flight batch sits in neither tail_offset_ nor pending_.
  return base + inflight_bytes_ + pending_.size();
}

WalStats Wal::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

WalScrubReport Wal::Scrub(Vfs* vfs, const std::string& db_path) {
  if (vfs == nullptr) vfs = Vfs::Default();
  WalScrubReport report;
  WalScanResult scan;
  Status st = ScanWalFile(vfs, PathFor(db_path), &scan);
  if (!st.ok()) {
    report.exists = true;
    report.corrupt = true;
    report.message = st.ToString();
    return report;
  }
  report.exists = scan.exists;
  if (!scan.exists) return report;
  report.bytes = scan.file_size;
  if (scan.short_header) {
    // Nothing acknowledged can live in a header-less file; recovery
    // treats it as empty.
    report.torn_tail = true;
    report.torn_tail_bytes = scan.file_size;
    report.message = scan.error;
    return report;
  }
  if (!scan.header_ok) {
    report.corrupt = true;
    report.message = scan.error;
    return report;
  }
  report.frames = scan.records.size();
  report.start_lsn = scan.start_lsn;
  report.last_lsn = scan.last_lsn;
  if (scan.valid_end < scan.file_size) {
    report.torn_tail = true;
    report.torn_tail_bytes = scan.file_size - scan.valid_end;
    report.message =
        "torn tail: " + std::to_string(report.torn_tail_bytes) +
        " trailing bytes past the last valid frame (trimmed on next open)";
  }
  return report;
}

}  // namespace segdiff
