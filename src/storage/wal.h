// Write-ahead log: redo records framed with CRC32C, fsynced in group-
// commit batches, replayed by Database::Open after a crash.
//
// One WAL file sits beside each database file (`<path>.wal`), written
// through the same Vfs so fault injection covers it. Layout:
//
//   header (32 B): magic "SDWL" | version u32 | start_lsn u64 |
//                  reserved u64 | crc32c(header[0,24)) | pad
//   frame:         lsn u64 | payload_len u32 | type u8 | payload |
//                  crc32c(frame[0, 13+payload_len))
//
// LSNs are assigned by a monotone counter that never runs backwards
// over the life of a store; within one WAL generation (between Resets)
// frame LSNs are consecutive from start_lsn, which the scanner uses as
// a validity check. The scan stops at the first short, gapped, or
// CRC-failed frame: a torn tail is the normal shape of a crash, never
// an error (frames past the tear were never acknowledged).
//
// Record kinds, each with exactly one writer:
//   kObservation  one FeatureSink::AppendObservation(t, v), logged by
//                 FeatureStore::Append — the logical redo unit for
//                 engine stores (SegDiff/Exh), replayed by re-running
//                 the ingest pipeline.
//   kFlush        a FlushPending boundary, logged by FeatureStore::Flush,
//                 so replay reproduces the segment-flush state
//                 byte-identically.
//   kRowAppend    one Table::Insert/InsertDoubles on a raw (non-engine)
//                 database: table name, the row's ordinal, encoded row
//                 bytes. The ordinal makes replay idempotent — a row
//                 already present (ordinal < row_count) is skipped.
//   kUndoImage    the page's PRIOR on-disk content, logged by the buffer
//                 pool before it writes back a dirty page between
//                 checkpoints (a steal or a checkpoint's flush).
//                 Recovery applies the OLDEST image of each page first,
//                 rolling those pages back to their checkpoint-era
//                 content so logical replay starts from an exact
//                 checkpoint state — required when a crash preserves
//                 unsynced writes (OS kill, power loss after the page
//                 cache drained).
// Replay itself logs nothing but undo images: it runs unlogged paths
// (Table::InsertEncoded, the engines' apply/flush steps). Catalog meta
// blobs are never logged; they persist with the next checkpoint.
//
// Durability contract: Append* buffers the record; it becomes durable
// at the next group-commit flush (every `group_commit_ms`, or
// immediately when the window is 0), or when Sync()/EnsureDurable()
// forces one. A failed flush is sticky: once the log cannot be made
// durable, every later append is refused rather than falsely
// acknowledged.
//
// Checkpoints call Reset(applied_lsn + 1): truncate to an empty
// generation whose start_lsn records that everything below it is in
// the data file.

#ifndef SEGDIFF_STORAGE_WAL_H_
#define SEGDIFF_STORAGE_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/vfs.h"

namespace segdiff {

inline constexpr size_t kWalHeaderSize = 32;
inline constexpr size_t kWalFrameHeaderSize = 13;  ///< lsn + len + type
inline constexpr size_t kWalFrameOverhead = kWalFrameHeaderSize + 4;
inline constexpr uint32_t kWalMagic = 0x4C574453u;  ///< "SDWL"
inline constexpr uint32_t kWalVersion = 1;
/// Upper bound on a single frame payload (sanity check while scanning;
/// the largest real payload is a page image plus a small header).
inline constexpr uint32_t kWalMaxPayload = 1u << 24;

enum class WalRecordType : uint8_t {
  kObservation = 1,
  kFlush = 2,
  kRowAppend = 3,
  kUndoImage = 4,
};

/// One recovered redo record.
struct WalRecord {
  uint64_t lsn = 0;
  WalRecordType type = WalRecordType::kObservation;
  std::string payload;
};

/// Decoded payload forms (see the Append* builders in wal.cc, which use
/// ByteWriter but for the 16-byte observation, built in place).
struct WalObservation {
  double t = 0.0;
  double v = 0.0;
};
struct WalRowAppend {
  std::string table;
  uint64_t ordinal = 0;  ///< row_count at append time
  std::string row;       ///< encoded row bytes
};
struct WalUndoImage {
  uint64_t page_id = 0;
  std::string image;  ///< kPageCapacity bytes (trailer is the pager's)
};

/// Each decoder consumes its payload exactly or fails with Corruption.
Result<WalObservation> DecodeWalObservation(const std::string& payload);
/// `row_bytes` maps the record's table to its row width (its error, for
/// a table the store does not have, is returned as is).
Result<WalRowAppend> DecodeWalRowAppend(
    const std::string& payload,
    const std::function<Result<size_t>(const std::string& table)>&
        row_bytes);
/// The image must be exactly kPageCapacity bytes.
Result<WalUndoImage> DecodeWalUndoImage(const std::string& payload);

struct WalOptions {
  /// Group-commit window in milliseconds. 0 flushes (write + fsync)
  /// synchronously inside every append; > 0 batches appends and a
  /// background flusher makes them durable at most this much later.
  int64_t group_commit_ms = 1;
};

/// Durability-side counters (bench_ingest's fsyncs-per-append metric).
struct WalStats {
  uint64_t appends = 0;        ///< records appended
  uint64_t fsyncs = 0;         ///< file Sync() calls issued
  uint64_t bytes_written = 0;  ///< frame bytes written to the file
  uint64_t group_commits = 0;  ///< flushes that covered >= 2 records
};

/// Read-only health report for one WAL file (verify --scrub).
struct WalScrubReport {
  bool exists = false;
  bool corrupt = false;  ///< unusable header — recovery would refuse it
  bool torn_tail = false;  ///< trailing bytes past the last valid frame
  uint64_t torn_tail_bytes = 0;  ///< how many trailing bytes are torn
  uint64_t bytes = 0;
  uint64_t frames = 0;     ///< valid frames
  uint64_t start_lsn = 0;  ///< header start LSN
  uint64_t last_lsn = 0;   ///< last valid frame LSN (0 if none)
  std::string message;     ///< diagnosis when corrupt or torn

  bool clean() const { return !corrupt; }
};

class Wal {
 public:
  /// The WAL file that belongs to the database at `db_path`.
  static std::string PathFor(const std::string& db_path) {
    return db_path + ".wal";
  }

  /// Opens the log beside `db_path` without creating it: a failed
  /// Database::Open must stay side-effect-free, so the file is created
  /// lazily on the first flush. An existing file is scanned; frames
  /// with lsn >= `min_next_lsn` (the pager's applied LSN + 1) become
  /// the recovered tail, frames below it are already in the data file
  /// and are skipped. A torn tail is trimmed (the byte count is
  /// surfaced via trimmed_tail_bytes(), never silently discarded); a
  /// corrupt header is a loud Corruption (the log may hold
  /// acknowledged data that cannot be read back).
  static Result<std::unique_ptr<Wal>> Open(Vfs* vfs,
                                           const std::string& db_path,
                                           const WalOptions& options,
                                           uint64_t min_next_lsn);

  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// The records recovered at Open that still need replay, in LSN
  /// order. Consumed by Database::Open's recovery pass.
  std::vector<WalRecord> TakeRecoveredRecords() {
    return std::move(recovered_);
  }

  // Append one record; returns its LSN. Buffered until the next group
  // commit unless the window is 0 (synchronous flush before returning).
  Result<uint64_t> AppendObservation(double t, double v);
  Result<uint64_t> AppendFlushMarker();
  Result<uint64_t> AppendRowAppend(const std::string& table,
                                   uint64_t ordinal, const char* row,
                                   size_t row_len);
  Result<uint64_t> AppendUndoImage(uint64_t page_id, const char* data,
                                   size_t n);

  /// Forces buffered records to disk (write + fsync). No-op when
  /// everything appended is already durable.
  Status Sync();

  /// Sync(), but skipped when `lsn` is already durable (or 0).
  Status EnsureDurable(uint64_t lsn);

  /// Starts a fresh empty generation after a checkpoint: truncates the
  /// file (a previous generation or a torn creation found at Open),
  /// stamps a header with `new_start_lsn`, fsyncs. A log that never
  /// reached the disk stays absent. The LSN counter itself never
  /// rewinds.
  Status Reset(uint64_t new_start_lsn);

  /// Final flush + flusher shutdown. Idempotent; the destructor calls
  /// it best-effort.
  Status Close();

  uint64_t last_lsn() const { return buffered_lsn_.load(); }
  uint64_t durable_lsn() const { return durable_lsn_.load(); }
  uint64_t start_lsn() const { return start_lsn_.load(); }
  /// Torn-tail bytes found (and scheduled for trimming) at Open: bytes
  /// past the last valid frame. Those frames were never acknowledged —
  /// trimming them is correct — but the count is reported (stats, scrub)
  /// so a crash's footprint is visible instead of silently vanishing.
  uint64_t trimmed_tail_bytes() const { return trimmed_tail_bytes_; }
  /// True when a checkpoint through `applied_lsn` would leave the log as
  /// it is: no record past it, no torn tail still on disk (the first
  /// flush or Reset trims it), and no failed flush or Reset to retry.
  bool CleanAt(uint64_t applied_lsn) const;
  /// Bytes the log occupies (durable tail + buffered records).
  uint64_t SizeBytes() const;
  WalStats stats() const;
  int64_t group_commit_ms() const { return window_ms_; }

  /// Whether Table::Insert/InsertDoubles should log kRowAppend
  /// records. Engine stores log kObservation instead (the observation
  /// is the redo unit; the rows it fans out into are deterministic), so
  /// they turn row logging off.
  bool logs_rows() const { return logs_rows_; }
  void set_logs_rows(bool v) { logs_rows_ = v; }

  /// Read-only scan of the WAL beside `db_path` (verify --scrub).
  static WalScrubReport Scrub(Vfs* vfs, const std::string& db_path);

 private:
  Wal(Vfs* vfs, std::string path, const WalOptions& options);

  Status AppendRecord(WalRecordType type, const char* payload, size_t n,
                      uint64_t* lsn);
  /// Writes pending bytes + fsyncs; sticky on failure. Requires mu_
  /// (held by `lock`), but releases it for the duration of the file
  /// write and fsync so concurrent Append* calls buffer into the next
  /// batch instead of stalling behind the sync; `flushing_` serializes
  /// overlapping flushers and keeps the tail single-writer.
  Status FlushLocked(std::unique_lock<std::mutex>& lock);
  /// Opens/creates the file and settles header/truncation. Requires mu_.
  Status EnsureFileLocked();
  void FlusherLoop();

  Vfs* vfs_;
  const std::string path_;
  const int64_t window_ms_;
  bool logs_rows_ = true;

  mutable std::mutex mu_;
  std::unique_ptr<RandomAccessFile> file_;  ///< null until first written
  bool file_fresh_ = true;   ///< header must be (re)written on flush
  bool need_dir_sync_ = false;
  uint64_t truncate_to_ = 0;  ///< trim torn tail before first write
  bool need_truncate_ = false;
  uint64_t trimmed_tail_bytes_ = 0;  ///< torn bytes found at Open
  uint64_t tail_offset_ = 0;  ///< file offset past the last flushed frame
  std::string pending_;       ///< encoded frames awaiting flush
  uint64_t pending_records_ = 0;
  bool flushing_ = false;      ///< a flusher holds the file tail (mu_ dropped)
  uint64_t inflight_bytes_ = 0;  ///< batch bytes being flushed right now
  uint64_t next_lsn_ = 1;
  std::atomic<uint64_t> start_lsn_{1};
  std::atomic<uint64_t> buffered_lsn_{0};  ///< last assigned LSN
  std::atomic<uint64_t> durable_lsn_{0};   ///< last fsynced LSN
  Status flush_error_;  ///< sticky: set by the first failed flush
  WalStats stats_;

  std::vector<WalRecord> recovered_;

  std::condition_variable cv_;
  bool stop_flusher_ = false;
  std::thread flusher_;
};

}  // namespace segdiff

#endif  // SEGDIFF_STORAGE_WAL_H_
