// Compressed columnar segments for kDouble feature tables.
//
// A columnar segment holds up to kMaxSegmentRows rows of an all-double
// table in column-major compressed form. Each column is encoded with
// whichever of these schemes is smallest while staying bit-exact:
//
//   kForPacked    frame-of-reference: values quantize exactly onto a
//                 decimal grid (v * 10^s integral), stored as bit-packed
//                 offsets from the column minimum. Segment times and
//                 time spans land here (sample cadence => a coarse grid).
//   kDeltaPacked  delta encoding on the same quantized integers; wins
//                 when the column is monotone or slowly varying (the
//                 segment directory's time columns).
//   kXor          Gorilla-style XOR of consecutive IEEE-754 bit
//                 patterns with leading-zero/significant-bit headers;
//                 handles arbitrary doubles (including NaN payloads,
//                 infinities and -0.0) bit-exactly. Kept only when it
//                 is at least 1/32 smaller than raw: it decodes far
//                 slower than raw, so a smaller saving does not pay.
//   kRaw          verbatim little-endian doubles; the fallback when XOR
//                 saves less than that (near-random mantissas).
//
// Every decode reproduces the exact bit pattern that was encoded, so
// row-format and columnar scans return byte-identical records.
//
// The segment header carries per-column zone statistics (min/max over
// non-NaN values plus a per-column NaN mask), computed at encode time,
// so scans prune whole segments without decoding them. Segments are
// laid out over ordinary pager pages (16-byte chain header + payload),
// which keeps the pager's CRC32C trailers — and therefore
// `verify --scrub` and the fault matrix — in force for columnar data.
//
// The write path stays on the row format: segments are only produced by
// CompactInto-style conversion of sealed row pages, and appends after
// conversion land in the table's row-format heap tail. A table with
// segments carries no B+-tree index (see Table), so segments are only
// ever read by scans: there is no point read by record id, and every
// read — searches, SQL, compaction, repair — decodes through one path,
// SeqScan's ColumnDecoder over the cursors below.

#ifndef SEGDIFF_STORAGE_COLUMN_PAGE_H_
#define SEGDIFF_STORAGE_COLUMN_PAGE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace segdiff {

enum class ColumnEncoding : uint8_t {
  kRaw = 0,
  kForPacked = 1,
  kDeltaPacked = 2,
  kXor = 3,
};

/// Name for --stats output ("raw", "for", "delta", "xor").
const char* ColumnEncodingName(ColumnEncoding encoding);

/// Persistent directory entry for one segment (catalog v3). Carries the
/// segment's zone statistics so scans prune and planners survey without
/// touching the segment's pages (the same stats live in the segment
/// header; these are the catalog's copy).
struct ColumnSegmentInfo {
  PageId first_page = kInvalidPageId;
  uint32_t rows = 0;
  uint32_t pages = 0;
  uint64_t encoded_bytes = 0;
  uint32_t nan_mask = 0;    ///< bit c set: column c holds at least one NaN
  std::vector<double> min;  ///< per column, over non-NaN values
  std::vector<double> max;  ///< min[c] > max[c] when column c is all-NaN
};

/// Persistent position of a table's columnar portion.
struct ColumnStoreMeta {
  std::vector<ColumnSegmentInfo> segments;
  uint64_t row_count = 0;
  uint64_t page_count = 0;
  uint64_t encoded_bytes = 0;
};

/// Frame-of-reference and delta columns store integers x on the 10^-s
/// grid (s = scale_log10): a value decodes as x / 10^s, or as x itself
/// when s = 0.
inline constexpr unsigned kMaxScaleLog10 = 4;
inline constexpr double kScalePow10[kMaxScaleLog10 + 1] = {
    1.0, 10.0, 100.0, 1000.0, 10000.0};

/// Parsed per-column header of one segment.
struct ColumnDirEntry {
  ColumnEncoding encoding = ColumnEncoding::kRaw;
  uint8_t scale_log10 = 0;   ///< values were scaled by 10^s before packing
  uint16_t bit_width = 0;    ///< packed width (kForPacked/kDeltaPacked)
  uint32_t payload_bytes = 0;
  int64_t base = 0;          ///< frame of reference / first delta value
  double min = 0.0;          ///< over non-NaN values; min > max when none
  double max = 0.0;
  uint64_t payload_offset = 0;  ///< from blob start (computed at parse)
};

/// Encodes `rows` row-major fixed-width records (`num_columns` doubles
/// each) into one segment blob. `rows` must be in [1, kMaxSegmentRows].
/// `info`, when given, receives the segment's rows, encoded size and
/// zone statistics (everything of its directory entry but the pages).
std::string EncodeColumnSegment(const char* records, size_t num_columns,
                                size_t rows,
                                ColumnSegmentInfo* info = nullptr);

/// A vector decoder for frame-of-reference and delta columns, which
/// ColumnCursor runs between a scalar peel and a scalar tail. It decodes
/// up to `groups` groups of eight values whose bits start at the
/// byte-aligned `bytes` into `out` and returns how many groups it
/// decoded. It stops before the first group it cannot decode exactly
/// as the cursor's scalar loop would; the cursor decodes that group
/// itself and calls again. `running` is a delta column's last decoded
/// integer, read and advanced; frame-of-reference columns ignore it.
using PackedDecodeFn = size_t (*)(const ColumnDirEntry& dir,
                                  const char* bytes, size_t groups,
                                  int64_t* running, double* out);

/// The AVX2 packed decoder, or null where the compiler could not build
/// it. The caller checks that the CPU has AVX2 (query/scan_kernel.h's
/// ActivePackedDecode makes that choice for scans).
PackedDecodeFn Avx2PackedDecode();

/// Sequential decoder over one encoded column. Decode advances the
/// cursor; the total decoded must not exceed the segment's rows.
class ColumnCursor {
 public:
  /// Decode reads whole 64-bit words, and the packed decoder 32-byte
  /// groups, so `payload` must stay readable for this many bytes past
  /// its last byte.
  static constexpr size_t kPayloadSlackBytes = 32;

  ColumnCursor() = default;
  /// `packed` decodes frame-of-reference and delta columns in groups of
  /// eight; null decodes them with the scalar loop alone.
  ColumnCursor(const ColumnDirEntry* dir, const char* payload, size_t rows,
               PackedDecodeFn packed = nullptr);

  /// Decodes the next `n` values into `out`. False when the column's
  /// bits are malformed: an XOR value whose header shifts past 64 bits
  /// or whose bits end past payload_bytes. The cursor is spent then.
  [[nodiscard]] bool Decode(size_t n, double* out);

 private:
  void DecodePacked(size_t n, double* out);
  /// The scalar reference loop of DecodePacked: `n` values from
  /// bit_pos_ on.
  void UnpackScalar(size_t n, double* out);
  bool DecodeXor(size_t n, double* out);

  const ColumnDirEntry* dir_ = nullptr;
  const char* payload_ = nullptr;
  size_t rows_ = 0;
  PackedDecodeFn packed_ = nullptr;
  size_t pos_ = 0;        ///< values consumed so far
  uint64_t bit_pos_ = 0;  ///< packed/xor read position in bits
  int64_t prev_int_ = 0;  ///< running value (delta encoding)
  uint64_t prev_bits_ = 0;  ///< previous IEEE bit pattern (xor encoding)
};

/// Parsed view over one segment whose pages have been fetched (and
/// therefore checksum-verified) through the buffer pool. Column payloads
/// are assembled lazily: a scan that only touches the predicate's
/// columns never copies — or decodes — the others.
class ColumnSegmentHandle {
 public:
  static Result<ColumnSegmentHandle> Open(BufferPool* pool,
                                          const ColumnSegmentInfo& info);

  size_t rows() const { return rows_; }
  size_t num_columns() const { return dir_.size(); }
  uint32_t nan_mask() const { return nan_mask_; }
  bool has_nan(size_t c) const { return (nan_mask_ >> c) & 1u; }
  const ColumnDirEntry& column(size_t c) const { return dir_[c]; }
  PageId first_page() const { return info_.first_page; }
  const ColumnSegmentInfo& info() const { return info_; }

  /// Cursor over column `c` (assembles the payload on first use) that
  /// decodes packed columns with `packed`. The one decode path: the scan
  /// executor's ColumnDecoder (query/scan_kernel.h) drives these cursors
  /// batch by batch.
  Result<ColumnCursor> OpenColumn(size_t c, PackedDecodeFn packed);

 private:
  ColumnSegmentHandle() = default;

  /// Contiguous bytes of column `c`'s payload, assembled into this
  /// handle's scratch on first use (copying only that column's encoded
  /// bytes — a fraction of the logical column size).
  Result<const char*> ColumnPayload(size_t c);

  BufferPool* pool_ = nullptr;
  ColumnSegmentInfo info_;
  std::vector<PageId> pages_;  ///< chain in order (all checksum-verified)
  std::vector<uint16_t> page_bytes_;  ///< payload bytes per chain page
  size_t rows_ = 0;
  uint32_t nan_mask_ = 0;
  std::vector<ColumnDirEntry> dir_;
  std::vector<std::string> col_scratch_;  ///< per-column assembled payloads
};

/// A table's columnar portion: an ordered list of immutable segments.
/// Scans report each row as RecordId{segment.first_page, row index
/// within the segment}; nothing resolves such an id back to a row.
class ColumnStore {
 public:
  /// Upper bound on rows per segment. Large enough to amortize headers
  /// and give the bit-packed encodings long runs; small enough that one
  /// decoded segment (all columns) stays cache-friendly.
  static constexpr size_t kMaxSegmentRows = 4096;

  /// Fresh, empty columnar portion.
  ColumnStore(BufferPool* pool, size_t num_columns);

  /// Attaches to segments recorded in the catalog.
  ColumnStore(BufferPool* pool, size_t num_columns, ColumnStoreMeta meta);

  const ColumnStoreMeta& meta() const { return meta_; }
  size_t num_columns() const { return num_columns_; }
  size_t segment_count() const { return meta_.segments.size(); }
  uint64_t row_count() const { return meta_.row_count; }
  uint64_t page_count() const { return meta_.page_count; }
  uint64_t encoded_bytes() const { return meta_.encoded_bytes; }
  /// Bytes the same rows occupy in the row format.
  uint64_t LogicalBytes() const {
    return meta_.row_count * num_columns_ * 8;
  }

  /// Encodes `rows` row-major records as one segment and appends it.
  Status AppendSegment(const char* records, size_t rows);

  /// Opens segment `idx` for scanning (fetches + verifies its pages).
  Result<ColumnSegmentHandle> OpenSegment(size_t idx) const;

 private:
  BufferPool* pool_;
  size_t num_columns_;
  ColumnStoreMeta meta_;
};

}  // namespace segdiff

#endif  // SEGDIFF_STORAGE_COLUMN_PAGE_H_
