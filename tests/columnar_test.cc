// Row-vs-columnar differential suite.
//
// The columnar format's contract (DESIGN.md §12): every decode
// reproduces the exact bit pattern that was encoded, so a query over a
// compacted (columnar) store returns byte-identical records — in the
// same order — as the same query over the original row store, with
// ScanStats that account for every row either scanned or pruned.
// Corruption detection survives compression: a damaged chain page fails
// the scan even when segment-level pruning would skip its rows.
//
// Layers under test, bottom-up: the encoders (bit-exact roundtrip over
// adversarial doubles), ColumnStore append/reopen (catalog v3), the
// "columnar tables carry no index" invariant, and the executor's
// columnar path (serial, parallel, count-only, and SQL end-to-end)
// against the row format as the oracle.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_paths.h"

#include "common/coding.h"
#include "common/random.h"
#include "common/vfs.h"
#include "query/executor.h"
#include "query/scan_kernel.h"
#include "sql/engine.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "storage/column_page.h"
#include "storage/db.h"
#include "storage/pager.h"
#include "storage/record.h"

namespace segdiff {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Encoder roundtrip: bit-exact over every value class.

/// Encodes `cols` column vectors as one segment and decodes every column
/// back, comparing bit patterns (so NaN payloads and -0.0 count).
void ExpectRoundTrip(const std::vector<std::vector<double>>& cols) {
  const size_t num_columns = cols.size();
  const size_t rows = cols[0].size();
  std::vector<char> records(rows * num_columns * 8);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < num_columns; ++c) {
      std::memcpy(&records[(r * num_columns + c) * 8], &cols[c][r], 8);
    }
  }
  const std::string blob =
      EncodeColumnSegment(records.data(), num_columns, rows);
  ASSERT_FALSE(blob.empty());

  // Parse the blob the way ColumnSegmentHandle does: 16-byte header,
  // then 32-byte directory entries, then payloads.
  ASSERT_GE(blob.size(), 16 + 32 * num_columns);
  for (size_t c = 0; c < num_columns; ++c) {
    const char* e = blob.data() + 16 + 32 * c;
    ColumnDirEntry dir;
    dir.encoding = static_cast<ColumnEncoding>(e[0]);
    dir.scale_log10 = static_cast<uint8_t>(e[1]);
    std::memcpy(&dir.bit_width, e + 2, 2);
    std::memcpy(&dir.payload_bytes, e + 4, 4);
    std::memcpy(&dir.base, e + 8, 8);
    std::memcpy(&dir.min, e + 16, 8);
    std::memcpy(&dir.max, e + 24, 8);
    // Payload offset: sum of the previous columns' payloads.
    uint64_t offset = 16 + 32 * num_columns;
    for (size_t p = 0; p < c; ++p) {
      uint32_t bytes = 0;
      std::memcpy(&bytes, blob.data() + 16 + 32 * p + 4, 4);
      offset += bytes;
    }
    // The cursor reads whole words: hand it the payload plus its slack,
    // as ColumnSegmentHandle does.
    std::string payload = blob.substr(offset, dir.payload_bytes);
    payload.append(ColumnCursor::kPayloadSlackBytes, '\0');
    ColumnCursor cursor(&dir, payload.data(), rows);
    std::vector<double> decoded(rows);
    ASSERT_TRUE(cursor.Decode(rows, decoded.data()));
    for (size_t r = 0; r < rows; ++r) {
      uint64_t want = 0, got = 0;
      std::memcpy(&want, &cols[c][r], 8);
      std::memcpy(&got, &decoded[r], 8);
      ASSERT_EQ(got, want)
          << "column " << c << " row " << r << " ("
          << ColumnEncodingName(dir.encoding) << "): " << cols[c][r]
          << " decoded as " << decoded[r];
    }
  }
}

TEST(ColumnEncodingTest, DecimalGridColumnsRoundTripExactly) {
  std::vector<double> seconds, centi;
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    seconds.push_back(std::round(rng.Uniform(0.0, 1e6)));
    centi.push_back(std::round(rng.Uniform(-500.0, 500.0) * 100.0) / 100.0);
  }
  ExpectRoundTrip({seconds, centi});
}

TEST(ColumnEncodingTest, MonotoneTimesRoundTripExactly) {
  std::vector<double> t;
  double base = 1.2e9;
  Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    base += std::round(rng.Uniform(1.0, 120.0));
    t.push_back(base);
  }
  ExpectRoundTrip({t});
}

TEST(ColumnEncodingTest, AdversarialDoublesRoundTripExactly) {
  // NaN (two payloads), infinities, -0.0, denormals, random mantissas:
  // nothing on a decimal grid, so the encoder must fall back to
  // xor/raw — and still be bit-exact.
  std::vector<double> values = {0.0,  -0.0, kNaN, -kNaN, kInf, -kInf,
                                5e-324, -5e-324, 1.0 + 1e-15};
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    values.push_back(rng.Uniform(-1.0, 1.0) * 1e300);
  }
  ExpectRoundTrip({values});
}

TEST(ColumnEncodingTest, SingleRowAndConstantColumns) {
  ExpectRoundTrip({{42.0}, {kNaN}, {-0.0}});
  ExpectRoundTrip({std::vector<double>(300, 7.5),
                   std::vector<double>(300, kNaN)});
}

TEST(ColumnEncodingTest, CompressesSensorShapedData) {
  const size_t rows = 4096;
  std::vector<char> records(rows * 2 * 8);
  Rng rng(4);
  double t = 0.0;
  for (size_t r = 0; r < rows; ++r) {
    t += std::round(rng.Uniform(30.0, 90.0));
    double dv = std::round(rng.Uniform(-8.0, 8.0) * 100.0) / 100.0;
    if (dv == 0.0) dv = 0.0;  // -0.0 is off the decimal grid by design
    std::memcpy(&records[r * 16], &t, 8);
    std::memcpy(&records[r * 16 + 8], &dv, 8);
  }
  const std::string blob = EncodeColumnSegment(records.data(), 2, rows);
  EXPECT_LT(blob.size(), records.size() / 2)
      << "sensor-shaped data must compress at least 2x";
}

/// Encoding of column `c` in a blob from EncodeColumnSegment.
ColumnEncoding EncodingOf(const std::string& blob, size_t c) {
  return static_cast<ColumnEncoding>(blob.at(16 + 32 * c));
}

/// An LSB-first bit stream, the bit order of CSG1 payloads.
class LsbBits {
 public:
  void Put(uint64_t v, unsigned bits) {
    for (unsigned i = 0; i < bits; ++i, ++bit_) {
      if (bit_ % 8 == 0) {
        bytes_.push_back('\0');
      }
      const unsigned bit = static_cast<unsigned>((v >> i) & 1u);
      bytes_.back() = static_cast<char>(
          static_cast<uint8_t>(bytes_.back()) | (bit << (bit_ % 8)));
    }
  }
  /// One changed XOR value: flag, leading zeros, significant bits - 1,
  /// then the significant bits.
  void PutXorValue(unsigned lz, unsigned sig, uint64_t sig_bits) {
    Put(1, 1);
    Put(lz, 6);
    Put(sig - 1, 6);
    Put(sig_bits, sig);
  }
  uint64_t bits() const { return bit_; }
  /// The stream cut or zero-padded to `n` bytes.
  std::string Bytes(size_t n) const {
    std::string out = bytes_.substr(0, n);
    out.resize(n, '\0');
    return out;
  }

 private:
  std::string bytes_;
  uint64_t bit_ = 0;
};

/// Doubles in [1, 2) whose consecutive XORs have exactly `lz` leading
/// zeros and no trailing zero, so each value after the first costs
/// 13 + (64 - lz) bits of XOR against 64 raw.
std::vector<double> XorWithLeadingZeros(unsigned lz, size_t rows) {
  Rng rng(lz);
  std::vector<double> values;
  uint64_t bits = 0x3FF0000000000000ull;  // 1.0
  for (size_t i = 0; i < rows; ++i) {
    values.push_back(std::bit_cast<double>(bits));
    const uint64_t top = uint64_t{1} << (63 - lz);
    bits ^= top | (rng.NextU64() & (top - 1)) | 1u;
  }
  return values;
}

/// One crafted XOR payload of a `rows`-value column.
struct MalformedXor {
  const char* name;
  std::string payload;
};

/// Three XOR streams of `payload_bytes` bytes for a `rows`-value
/// column that a cursor must refuse, each for one reason only:
///   - a header whose leading zeros and significant bits add up past 64
///     (40 + 40), in a stream whose other values fit the payload;
///   - a run of 64-bit significands (lz 0) that ends past the payload
///     before `rows` values;
///   - a last value whose bits end one bit past the payload, after
///     `rows` - 2 unchanged ones.
std::vector<MalformedXor> MalformedXorStreams(size_t rows,
                                              size_t payload_bytes) {
  constexpr uint64_t kFirst = 0x3FD5555555555555ull;  // 1/3
  std::vector<MalformedXor> out;
  LsbBits shift;
  shift.Put(kFirst, 64);
  shift.PutXorValue(40, 40, 0xABCDEF);
  for (size_t i = 2; i < rows; ++i) {
    shift.Put(0, 1);  // unchanged
  }
  EXPECT_LE(shift.bits(), payload_bytes * 8) << "the shift case overflows";
  out.push_back({"lz 40 + sig 40", shift.Bytes(payload_bytes)});

  LsbBits run;
  run.Put(kFirst, 64);
  while (run.bits() < payload_bytes * 8) {
    run.PutXorValue(0, 64, 0x8000000000000001ull);
  }
  EXPECT_LT((run.bits() - 64) / 77, rows - 1) << "the run fits the payload";
  out.push_back({"sig 64 run past the payload", run.Bytes(payload_bytes)});

  LsbBits cut;
  cut.Put(kFirst, 64);
  for (size_t i = 1; i + 1 < rows; ++i) {
    cut.Put(0, 1);  // unchanged
  }
  const int64_t sig = static_cast<int64_t>(payload_bytes * 8 + 1) -
                      static_cast<int64_t>(cut.bits() + 13);
  EXPECT_TRUE(sig >= 1 && sig <= 64) << "no cut-off value fits: " << sig;
  const unsigned s = static_cast<unsigned>(std::clamp<int64_t>(sig, 1, 64));
  cut.PutXorValue(64 - s, s, 1);
  out.push_back({"last value cut off", cut.Bytes(payload_bytes)});
  return out;
}

// XOR decodes about 20 times slower per value than raw, so the encoder
// keeps it only when it is at least 1/32 smaller. With 1024 rows, 15
// leading zeros save 2 bits per value after the first, just under 1/32
// of raw; 16 save 3 bits. The round trip holds either way.
TEST(ColumnEncodingTest, XorIsKeptOnlyWhereItSavesAThirtySecond) {
  constexpr size_t kRows = 1024;
  for (const unsigned lz : {13u, 14u, 15u, 16u, 20u}) {
    const std::vector<double> values = XorWithLeadingZeros(lz, kRows);
    const std::string blob = EncodeColumnSegment(
        reinterpret_cast<const char*>(values.data()), 1, kRows);
    EXPECT_EQ(EncodingOf(blob, 0),
              lz <= 15 ? ColumnEncoding::kRaw : ColumnEncoding::kXor)
        << "lz " << lz;
    ExpectRoundTrip({values});
  }
}

// Crafted XOR streams the cursor must refuse rather than shift by 64 or
// more or read past the payload. Each payload sits in an exactly sized
// buffer (the payload plus the cursor's slack), so the sanitizer build
// catches a read beyond it.
TEST(ColumnEncodingTest, MalformedXorStreamsFailToDecode) {
  constexpr size_t kRows = 200;
  for (const MalformedXor& c : MalformedXorStreams(kRows, 41)) {
    ColumnDirEntry dir;
    dir.encoding = ColumnEncoding::kXor;
    dir.payload_bytes = static_cast<uint32_t>(c.payload.size());
    std::vector<char> payload(c.payload.begin(), c.payload.end());
    payload.resize(c.payload.size() + ColumnCursor::kPayloadSlackBytes, '\0');
    std::vector<double> out(kRows);
    ColumnCursor whole(&dir, payload.data(), kRows);
    EXPECT_FALSE(whole.Decode(kRows, out.data())) << c.name;
    // Batch by batch, the failure surfaces in the batch that holds it.
    ColumnCursor batched(&dir, payload.data(), kRows);
    bool ok = true;
    for (size_t done = 0; ok && done < kRows; done += 64) {
      ok = batched.Decode(std::min<size_t>(64, kRows - done), out.data());
    }
    EXPECT_FALSE(ok) << c.name;
  }
}

// ---------------------------------------------------------------------------
// Packed decode variants: the AVX2 unpack must give the scalar loop's
// bits for every width, scale and base, whichever way the calls split.

bool Avx2DecodeRuns() {
#if defined(__x86_64__) || defined(_M_X64)
  return Avx2PackedDecode() != nullptr && __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

/// Bit patterns of `rows` values decoded with `packed` in calls of the
/// sizes `first` lists, then of up to 1024 values until the end.
std::vector<uint64_t> DecodeInCalls(const ColumnDirEntry& dir,
                                    const std::string& payload, size_t rows,
                                    PackedDecodeFn packed,
                                    const std::vector<size_t>& first) {
  ColumnCursor cursor(&dir, payload.data(), rows, packed);
  std::vector<double> out(rows);
  size_t done = 0;
  size_t call = 0;
  while (done < rows) {
    const size_t n = std::min(
        rows - done, call < first.size() ? first[call] : size_t{1024});
    EXPECT_TRUE(cursor.Decode(n, out.data() + done));
    done += n;
    ++call;
  }
  std::vector<uint64_t> bits(rows);
  std::memcpy(bits.data(), out.data(), rows * 8);
  return bits;
}

/// A packed column of `rows` values with random `width`-bit lanes, as
/// its directory entry and payload (plus the cursor's slack).
std::pair<ColumnDirEntry, std::string> RandomPackedColumn(
    ColumnEncoding encoding, unsigned width, unsigned scale, int64_t base,
    size_t rows, Rng& rng) {
  ColumnDirEntry dir;
  dir.encoding = encoding;
  dir.bit_width = static_cast<uint16_t>(width);
  dir.scale_log10 = static_cast<uint8_t>(scale);
  dir.base = base;
  const size_t lanes =
      encoding == ColumnEncoding::kDeltaPacked ? rows - 1 : rows;
  dir.payload_bytes = static_cast<uint32_t>((lanes * width + 7) / 8);
  std::string payload;
  for (size_t i = 0; i < dir.payload_bytes; ++i) {
    payload.push_back(static_cast<char>(rng.NextU64()));
  }
  payload.append(ColumnCursor::kPayloadSlackBytes, '\0');
  return {dir, payload};
}

TEST(PackedDecodeTest, EveryWidthScaleAndBaseMatchesTheScalarLoop) {
  if (!Avx2DecodeRuns()) {
    GTEST_SKIP() << "no AVX2 decoder on this build or CPU";
  }
  const int64_t kBases[] = {0,
                            -5,
                            int64_t{1} << 40,
                            -(int64_t{1} << 50),
                            (int64_t{1} << 51) - 300,
                            -(int64_t{1} << 51) + 100,
                            std::numeric_limits<int64_t>::max() - 1000,
                            std::numeric_limits<int64_t>::min() + 1000};
  constexpr size_t kRows = 203;
  Rng rng(51);
  for (const ColumnEncoding encoding :
       {ColumnEncoding::kForPacked, ColumnEncoding::kDeltaPacked}) {
    for (unsigned width = 0; width <= 64; ++width) {
      for (unsigned scale = 0; scale <= kMaxScaleLog10; ++scale) {
        for (const int64_t base : kBases) {
          const auto [dir, payload] =
              RandomPackedColumn(encoding, width, scale, base, kRows, rng);
          const std::vector<uint64_t> want =
              DecodeInCalls(dir, payload, kRows, nullptr, {});
          for (const std::vector<size_t>& first :
               {std::vector<size_t>{}, {1, 7, 9}, {3, 8, 5}}) {
            ASSERT_EQ(DecodeInCalls(dir, payload, kRows, Avx2PackedDecode(),
                                    first),
                      want)
                << ColumnEncodingName(encoding) << " width " << width
                << " scale " << scale << " base " << base
                << " first call " << (first.empty() ? 0 : first[0]);
          }
        }
      }
    }
  }
}

// Whole segments decoded the way scans call: batches that start
// unaligned after 1, 7, 9 or 1023 values, or aligned after 1024, and a
// tail that is no multiple of eight.
TEST(PackedDecodeTest, UnalignedCallSequencesMatchTheScalarLoop) {
  if (!Avx2DecodeRuns()) {
    GTEST_SKIP() << "no AVX2 decoder on this build or CPU";
  }
  constexpr size_t kRows = 4093;
  Rng rng(52);
  const std::vector<std::vector<size_t>> kSequences = {
      {1}, {7}, {9}, {1023}, {1024}, {1, 7, 9, 1023, 1024}};
  for (const ColumnEncoding encoding :
       {ColumnEncoding::kForPacked, ColumnEncoding::kDeltaPacked}) {
    for (const unsigned width : {1u, 3u, 8u, 13u, 32u, 50u, 57u}) {
      const auto [dir, payload] =
          RandomPackedColumn(encoding, width, 2, -1000, kRows, rng);
      const std::vector<uint64_t> want =
          DecodeInCalls(dir, payload, kRows, nullptr, {kRows});
      for (const std::vector<size_t>& first : kSequences) {
        EXPECT_EQ(
            DecodeInCalls(dir, payload, kRows, Avx2PackedDecode(), first),
            want)
            << ColumnEncodingName(encoding) << " width " << width
            << " first call " << first[0] << " of " << first.size();
      }
    }
  }
}

// Delta runs that climb through 2^51 or fall through -2^51 leave the
// range the vector conversion is exact in: those groups fall back to
// the scalar loop, and every value still decodes to its source bits.
TEST(PackedDecodeTest, DeltaRunsAcrossTwoToThe51StayExact) {
  constexpr size_t kRows = ColumnStore::kMaxSegmentRows;
  const double two51 = std::ldexp(1.0, 51);
  std::vector<double> up, down;
  Rng rng(53);
  double a = two51 - 3000.0;
  double b = -two51 + 3000.0;
  for (size_t i = 0; i < kRows; ++i) {
    up.push_back(a);
    down.push_back(b);
    a += static_cast<double>(1 + rng.UniformU64(2));
    b -= static_cast<double>(1 + rng.UniformU64(2));
  }
  ASSERT_GT(up.back(), two51);
  ASSERT_LT(down.back(), -two51);
  std::vector<char> records(kRows * 16);
  for (size_t r = 0; r < kRows; ++r) {
    std::memcpy(&records[r * 16], &up[r], 8);
    std::memcpy(&records[r * 16 + 8], &down[r], 8);
  }
  const std::string blob = EncodeColumnSegment(records.data(), 2, kRows);
  ASSERT_EQ(EncodingOf(blob, 0), ColumnEncoding::kDeltaPacked);
  ASSERT_EQ(EncodingOf(blob, 1), ColumnEncoding::kDeltaPacked);
  ExpectRoundTrip({up, down});
  if (!Avx2DecodeRuns()) {
    return;
  }
  uint64_t offset = 16 + 32 * 2;
  for (size_t c = 0; c < 2; ++c) {
    ColumnDirEntry dir;
    const char* e = blob.data() + 16 + 32 * c;
    dir.encoding = static_cast<ColumnEncoding>(e[0]);
    dir.scale_log10 = static_cast<uint8_t>(e[1]);
    std::memcpy(&dir.bit_width, e + 2, 2);
    std::memcpy(&dir.payload_bytes, e + 4, 4);
    std::memcpy(&dir.base, e + 8, 8);
    std::string payload = blob.substr(offset, dir.payload_bytes);
    payload.append(ColumnCursor::kPayloadSlackBytes, '\0');
    offset += dir.payload_bytes;
    const std::vector<double>& source = c == 0 ? up : down;
    std::vector<uint64_t> want(kRows);
    std::memcpy(want.data(), source.data(), kRows * 8);
    for (const std::vector<size_t>& first :
         {std::vector<size_t>{}, {1, 7, 9}}) {
      EXPECT_EQ(DecodeInCalls(dir, payload, kRows, Avx2PackedDecode(), first),
                want)
          << "column " << c;
    }
  }
}

// ---------------------------------------------------------------------------
// Differential fixture: the same rows in a row store and its compacted
// (columnar) twin; every query must agree byte for byte.

class ColumnarDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    row_path_ = UniqueTestPath("columnar", "_row.db");
    col_path_ = UniqueTestPath("columnar", "_col.db");
    std::remove(row_path_.c_str());
    std::remove(col_path_.c_str());
  }
  void TearDown() override {
    row_db_.reset();
    col_db_.reset();
    std::remove(row_path_.c_str());
    std::remove(col_path_.c_str());
  }

  /// Builds the row store from `rows`, compacts it into the columnar
  /// twin, and opens both. Compaction never modifies its source, so the
  /// row store keeps its original row format and stays the oracle.
  void Build(const std::vector<std::vector<double>>& rows,
             const std::vector<std::string>& columns = {"dt", "dv"}) {
    auto db = Database::Open(row_path_, DatabaseOptions{});
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto schema = DoubleSchema(columns);
    ASSERT_TRUE(schema.ok());
    auto table = (*db)->CreateTable("f", *schema);
    ASSERT_TRUE(table.ok());
    for (const std::vector<double>& row : rows) {
      ASSERT_TRUE((*table)->InsertDoubles(row).ok());
    }
    ASSERT_TRUE((*table)->EnsureZoneMap().ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    ASSERT_TRUE((*db)->CompactInto(col_path_).ok());
    row_db_ = std::move(db).value();

    DatabaseOptions reopen;
    reopen.create_if_missing = false;
    auto col = Database::Open(col_path_, reopen);
    ASSERT_TRUE(col.ok()) << col.status().ToString();
    col_db_ = std::move(col).value();

    auto row_table = row_db_->GetTable("f");
    auto col_table = col_db_->GetTable("f");
    ASSERT_TRUE(row_table.ok());
    ASSERT_TRUE(col_table.ok());
    row_table_ = *row_table;
    col_table_ = *col_table;
    if (!rows.empty()) {
      ASSERT_NE(col_table_->columnar(), nullptr)
          << "compaction did not convert to columnar";
      EXPECT_EQ(col_table_->columnar()->row_count(), rows.size());
      EXPECT_EQ(col_table_->heap_meta().record_count, 0u);
    }
    ASSERT_TRUE(col_table_->EnsureZoneMap().ok());
  }

  /// All records matching any of `predicates` (raw bytes, scan order)
  /// plus stats.
  static std::vector<std::string> Matches(
      const Table& table, std::span<const Predicate> predicates,
      const SeqScanOptions& options, ScanStats* stats) {
    std::vector<std::string> out;
    const size_t bytes = table.schema().num_columns() * 8;
    Status status = SeqScan(
        table, predicates,
        [&](const char* record, RecordId) {
          out.emplace_back(record, bytes);
          return Status::OK();
        },
        stats, options);
    EXPECT_TRUE(status.ok()) << status.ToString();
    return out;
  }

  void ExpectSameResults(const Predicate& predicate) {
    ExpectSameResults(std::span<const Predicate>(&predicate, 1));
  }

  /// Differential check of one any-of scan across both stores and every
  /// execution strategy (row-at-a-time, batch, batch+prune — each with
  /// and without pruning —, parallel, count-only). The row store's
  /// plain batch scan is the oracle; with several predicates it must
  /// itself equal the union of the single-predicate scans, each row
  /// once, in scan order.
  void ExpectSameResults(std::span<const Predicate> predicates) {
    const SeqScanOptions kStrategies[] = {
        SeqScanOptions{/*batch=*/false, /*prune=*/false},
        SeqScanOptions{/*batch=*/false, /*prune=*/true},
        SeqScanOptions{/*batch=*/true, /*prune=*/false},
        SeqScanOptions{/*batch=*/true, /*prune=*/true},
    };
    ScanStats oracle_stats;
    const std::vector<std::string> oracle =
        Matches(*row_table_, predicates, kStrategies[2], &oracle_stats);
    if (predicates.size() > 1) {
      ExpectUnionOfSingles(predicates, oracle);
    }

    for (const SeqScanOptions& options : kStrategies) {
      for (Table* table : {row_table_, col_table_}) {
        const char* label = table == row_table_ ? "row" : "columnar";
        ScanStats stats;
        const std::vector<std::string> got =
            Matches(*table, predicates, options, &stats);
        ASSERT_EQ(got.size(), oracle.size())
            << label << " batch=" << options.batch
            << " prune=" << options.prune;
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i], oracle[i])
              << label << " record " << i << " differs (batch="
              << options.batch << " prune=" << options.prune << ")";
        }
        EXPECT_EQ(stats.rows_matched, oracle_stats.rows_matched) << label;
        // Every row is accounted for: scanned or pruned, never dropped.
        EXPECT_EQ(stats.rows_scanned + stats.rows_pruned,
                  row_table_->row_count())
            << label << " prune=" << options.prune;

        // A count-only scan (null callback) of the same strategy agrees
        // with the materializing scan's stats exactly.
        ScanStats count_stats;
        ASSERT_TRUE(
            SeqScan(*table, predicates, nullptr, &count_stats, options).ok());
        EXPECT_EQ(count_stats.rows_matched, stats.rows_matched) << label;
        EXPECT_EQ(count_stats.rows_scanned, stats.rows_scanned) << label;
        EXPECT_EQ(count_stats.rows_pruned, stats.rows_pruned) << label;
        EXPECT_EQ(count_stats.pages_scanned, stats.pages_scanned) << label;
        EXPECT_EQ(count_stats.pages_pruned, stats.pages_pruned) << label;
      }
    }

    // Parallel == serial on the columnar store, for every partitioning.
    const size_t bytes = col_table_->schema().num_columns() * 8;
    for (const size_t partitions : {1u, 2u, 3u, 4u, 7u}) {
      std::vector<std::vector<std::string>> outs(partitions);
      ScanStats parallel_stats;
      ASSERT_TRUE(ParallelSeqScan(
                      *col_table_, predicates, partitions,
                      [&outs, bytes](size_t p) -> RowCallback {
                        auto* sink = &outs[p];
                        return [sink, bytes](const char* record, RecordId) {
                          sink->emplace_back(record, bytes);
                          return Status::OK();
                        };
                      },
                      &parallel_stats)
                      .ok());
      std::vector<std::string> merged;
      for (const auto& part : outs) {
        merged.insert(merged.end(), part.begin(), part.end());
      }
      ASSERT_EQ(merged, oracle) << partitions << " partitions";
      EXPECT_EQ(parallel_stats.rows_matched, oracle_stats.rows_matched);
    }
  }

  /// `any_of` (the row store's any-of scan of `predicates`) is the union
  /// of the single-predicate scans: each row once, in scan order.
  void ExpectUnionOfSingles(std::span<const Predicate> predicates,
                            const std::vector<std::string>& any_of) {
    std::set<uint64_t> selected;
    for (const Predicate& predicate : predicates) {
      ASSERT_TRUE(SeqScan(*row_table_, predicate,
                          [&](const char*, RecordId id) {
                            selected.insert(id.Pack());
                            return Status::OK();
                          })
                      .ok());
    }
    std::vector<std::string> expected;
    const size_t bytes = row_table_->schema().num_columns() * 8;
    ASSERT_TRUE(SeqScan(*row_table_, Predicate::True(),
                        [&](const char* record, RecordId id) {
                          if (selected.count(id.Pack()) > 0) {
                            expected.emplace_back(record, bytes);
                          }
                          return Status::OK();
                        })
                    .ok());
    EXPECT_EQ(any_of, expected);
  }

  std::string row_path_, col_path_;
  std::unique_ptr<Database> row_db_, col_db_;
  Table* row_table_ = nullptr;
  Table* col_table_ = nullptr;
};

std::vector<std::vector<double>> SensorRows(size_t n, uint64_t seed = 11) {
  std::vector<std::vector<double>> rows;
  Rng rng(seed);
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    t += std::round(rng.Uniform(30.0, 90.0));
    rows.push_back(
        {t, std::round(rng.Uniform(-8.0, 8.0) * 100.0) / 100.0});
  }
  return rows;
}

TEST_F(ColumnarDifferentialTest, IdenticalResultsAcrossFormats) {
  Build(SensorRows(10000));
  for (const double bound : {-7.9, -3.0, 0.0, 3.0, 1e9}) {
    Predicate predicate;
    predicate.And(1, CmpOp::kLe, bound);
    ExpectSameResults(predicate);
  }
  Predicate conjunction;
  conjunction.And(0, CmpOp::kLe, 200000.0).And(1, CmpOp::kGe, 2.0);
  ExpectSameResults(conjunction);
  Predicate nothing;  // empty predicate: full scan
  ExpectSameResults(nothing);

  // Any-of inputs: overlapping, disjoint, an impossible member, and a
  // residual member (the line query's shape).
  Predicate low;
  low.And(1, CmpOp::kLe, -3.0);
  Predicate high;
  high.And(1, CmpOp::kGe, 6.0).And(0, CmpOp::kLe, 300000.0);
  Predicate impossible;
  impossible.And(0, CmpOp::kGt, 1e18);
  Predicate residual;
  residual.And(1, CmpOp::kGe, -5.0).AndResidual([](const char* record) {
    return std::fmod(DecodeDoubleColumn(record, 0), 3.0) == 0.0;
  });
  ExpectSameResults(std::vector<Predicate>{low, high});
  ExpectSameResults(std::vector<Predicate>{conjunction, low});
  ExpectSameResults(std::vector<Predicate>{impossible, high, impossible});
  ExpectSameResults(std::vector<Predicate>{residual, low, high, residual});
  ExpectSameResults(std::vector<Predicate>{impossible, impossible});
}

TEST_F(ColumnarDifferentialTest, NanColumnsNeverMatchInEitherFormat) {
  // Every 7th dv is NaN; NaN fails every ordered comparison, in the
  // bitmap kernels and in the columnar decode path alike.
  std::vector<std::vector<double>> rows = SensorRows(5000, 13);
  for (size_t i = 0; i < rows.size(); i += 7) {
    rows[i][1] = kNaN;
  }
  Build(rows);
  ASSERT_NE(col_table_->columnar(), nullptr);
  EXPECT_NE(col_table_->columnar()->meta().segments[0].nan_mask & 2u, 0u)
      << "segment directory lost the NaN mask";
  for (const double bound : {-3.0, 0.0, 1e18}) {
    Predicate predicate;
    predicate.And(1, CmpOp::kLe, bound);
    ExpectSameResults(predicate);
    Predicate ge;
    ge.And(1, CmpOp::kGe, -bound);
    ExpectSameResults(ge);
    ExpectSameResults(std::vector<Predicate>{predicate, ge});
  }
}

TEST_F(ColumnarDifferentialTest, SegmentBoundaryRowCounts) {
  // Exactly one full segment, a multiple, and one-past: the final short
  // (or single-row) segment must decode like any other.
  for (const size_t n :
       {ColumnStore::kMaxSegmentRows, 2 * ColumnStore::kMaxSegmentRows,
        ColumnStore::kMaxSegmentRows + 1, size_t{1}, size_t{1023}}) {
    SetUp();  // fresh paths per size
    Build(SensorRows(n, 17 + n));
    Predicate all;
    Predicate half;
    half.And(1, CmpOp::kLe, 0.0);
    Predicate early;
    early.And(0, CmpOp::kLe, 40000.0);
    ExpectSameResults(all);
    ExpectSameResults(half);
    ExpectSameResults(std::vector<Predicate>{half, early});
    TearDown();
  }
}

TEST_F(ColumnarDifferentialTest, EmptyTableCompactsAndScansClean) {
  Build({});
  Predicate predicate;
  predicate.And(0, CmpOp::kLe, 1.0);
  ScanStats stats;
  ASSERT_TRUE(SeqScan(*col_table_, predicate, nullptr, &stats).ok());
  EXPECT_EQ(stats.rows_scanned, 0u);
  EXPECT_EQ(stats.rows_matched, 0u);
  const Table::FormatBreakdown breakdown = col_table_->GetFormatBreakdown();
  EXPECT_EQ(breakdown.columnar_segments, 0u);
  EXPECT_EQ(breakdown.row_pages, 0u) << "empty table must own no heap pages";
}

TEST_F(ColumnarDifferentialTest, PrunedSegmentsAccountAllRows) {
  Build(SensorRows(12000, 19));
  Predicate impossible;
  impossible.And(0, CmpOp::kGt, 1e18);
  ScanStats stats;
  ASSERT_TRUE(SeqScan(*col_table_, impossible, nullptr, &stats).ok());
  const ColumnStore* store = col_table_->columnar();
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(stats.pages_pruned, store->page_count());
  EXPECT_EQ(stats.rows_pruned, store->row_count());
  EXPECT_EQ(stats.pages_scanned, 0u);
  EXPECT_EQ(stats.rows_matched, 0u);

  // And the planner's survey agrees with what the scan just did.
  const ColumnarSurvey survey =
      SurveyColumnarSegments(*store, impossible.conditions());
  EXPECT_EQ(survey.segments_surviving, 0u);
  EXPECT_EQ(survey.pages_total, store->page_count());
  EXPECT_EQ(survey.rows_total, store->row_count());
}

// An any-of scan prunes a segment only when no predicate can match it:
// the first and last segments, each matched by one predicate, are
// decoded; the two between are pruned.
TEST_F(ColumnarDifferentialTest, AnyOfPrunesOnlySegmentsNoPredicateCanMatch) {
  const size_t kSeg = ColumnStore::kMaxSegmentRows;
  std::vector<std::vector<double>> rows;
  for (size_t i = 0; i < 4 * kSeg; ++i) {
    rows.push_back({static_cast<double>(i), i % 2 ? 1.0 : -1.0});
  }
  Build(rows);
  const ColumnStore* store = col_table_->columnar();
  ASSERT_NE(store, nullptr);
  ASSERT_EQ(store->segment_count(), 4u);
  Predicate first;
  first.And(0, CmpOp::kLt, 10.0);
  Predicate last;
  last.And(0, CmpOp::kGe, 4.0 * kSeg - 10.0).And(1, CmpOp::kGt, 0.0);
  Predicate none;
  none.And(0, CmpOp::kGt, 1e18);
  const std::vector<Predicate> any_of = {none, first, last};
  ScanStats stats;
  const std::vector<std::string> got =
      Matches(*col_table_, any_of, SeqScanOptions{}, &stats);
  EXPECT_EQ(got.size(), 15u);
  EXPECT_EQ(stats.rows_matched, 15u);
  const auto& segments = store->meta().segments;
  EXPECT_EQ(stats.rows_scanned, 2 * kSeg);
  EXPECT_EQ(stats.rows_pruned, 2 * kSeg);
  EXPECT_EQ(stats.pages_scanned, segments[0].pages + segments[3].pages);
  EXPECT_EQ(stats.pages_pruned, segments[1].pages + segments[2].pages);
  ExpectSameResults(any_of);
}

// A table with columnar segments carries no index: both ways to add one
// are refused before anything is allocated, and the row twin still
// takes one.
TEST_F(ColumnarDifferentialTest, CompactedTablesRefuseIndexes) {
  Build(SensorRows(5000, 31));
  ASSERT_NE(col_table_->columnar(), nullptr);
  EXPECT_TRUE(col_table_->indexes().empty());
  const uint64_t pages = col_db_->pager()->page_count();

  Result<BPlusTree*> created = col_table_->CreateIndex("ix", {"dt", "dv"});
  EXPECT_TRUE(created.status().IsInvalidArgument())
      << created.status().ToString();
  sql::Engine engine(col_db_.get());
  auto sql_created = engine.Execute("CREATE INDEX ix ON f (dt, dv)");
  EXPECT_TRUE(sql_created.status().IsInvalidArgument())
      << sql_created.status().ToString();
  EXPECT_TRUE(col_table_->indexes().empty());
  EXPECT_EQ(col_db_->pager()->page_count(), pages);

  EXPECT_TRUE(row_table_->CreateIndex("ix", {"dt", "dv"}).ok());
}

// A catalog recording an index on a table with columnar segments — what
// compaction wrote before converted tables dropped their indexes — fails
// the open with Corruption naming the table, and leaves the file as it
// was.
TEST_F(ColumnarDifferentialTest, CatalogIndexOnColumnarTableIsRefused) {
  Build(SensorRows(5000, 37));
  col_db_.reset();
  {
    auto pager = Pager::Open(col_path_, /*create=*/false);
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    BufferPool pool(pager->get(), 64);
    auto catalog = ReadCatalog(&pool);
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
    ASSERT_EQ(catalog->tables.size(), 1u);
    ASSERT_FALSE(catalog->tables[0].columnar.segments.empty());
    auto tree = BPlusTree::Create(&pool, 2);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    catalog->tables[0].indexes.push_back(
        IndexMeta{"ix", {0, 1}, tree->meta_page()});
    ASSERT_TRUE(WriteCatalog(&pool, EncodeCatalog(*catalog)).ok());
    ASSERT_TRUE(pool.FlushAll().ok());
    ASSERT_TRUE((*pager)->Sync().ok());
  }
  auto file_bytes = [this] {
    std::ifstream in(col_path_, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string before = file_bytes();
  DatabaseOptions options;
  options.create_if_missing = false;
  auto db = Database::Open(col_path_, options);
  ASSERT_FALSE(db.ok()) << "opened an index over columnar segments";
  EXPECT_TRUE(db.status().IsCorruption()) << db.status().ToString();
  EXPECT_NE(std::string(db.status().message()).find("table 'f'"),
            std::string::npos)
      << db.status().ToString();
  EXPECT_EQ(file_bytes(), before) << "the refused open modified the file";
}

/// Scans `table` with a row callback: plainly it must fail with
/// Corruption, and a partial scan must route around its one segment of
/// `rows` rows and `pages` pages as quarantined.
void ExpectSegmentQuarantined(const Table& table, uint64_t rows,
                              uint64_t pages) {
  const size_t width = table.schema().num_columns();
  auto copy_row = [&](const char* record, RecordId) {
    std::vector<double> row(width);
    std::memcpy(row.data(), record, width * 8);
    return Status::OK();
  };
  const Status plain = SeqScan(table, Predicate::True(), copy_row);
  EXPECT_TRUE(plain.IsCorruption()) << plain.ToString();
  SeqScanOptions partial;
  partial.skip_quarantined = true;
  ScanStats stats;
  const Status routed =
      SeqScan(table, Predicate::True(), copy_row, &stats, partial);
  EXPECT_TRUE(routed.ok()) << routed.ToString();
  EXPECT_EQ(stats.rows_scanned, 0u);
  EXPECT_EQ(stats.rows_quarantined, rows);
  EXPECT_EQ(stats.pages_quarantined, pages);
}

// A catalog entry of a 3-column table pointing at a 5-column table's
// segment with the same row count: the segment's column count must
// match its table's, or scans rebuild 5-double rows into 3-double
// buffers.
TEST_F(ColumnarDifferentialTest, SegmentWiderThanItsTableIsQuarantined) {
  constexpr size_t kRows = 200;
  {
    auto db = Database::Open(col_path_, DatabaseOptions{});
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (const auto& [name, width] :
         {std::pair<const char*, size_t>{"narrow", 3}, {"wide", 5}}) {
      std::vector<std::string> columns;
      for (size_t c = 0; c < width; ++c) {
        columns.push_back("c" + std::to_string(c));
      }
      auto table = (*db)->CreateTable(name, DoubleSchema(columns).value());
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      std::vector<double> records;
      for (size_t i = 0; i < kRows * width; ++i) {
        records.push_back(0.5 * static_cast<double>(i));
      }
      ASSERT_TRUE((*table)
                      ->AppendColumnarSegment(
                          reinterpret_cast<const char*>(records.data()), kRows)
                      .ok());
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  uint32_t pages = 0;
  {
    auto pager = Pager::Open(col_path_, /*create=*/false);
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    BufferPool pool(pager->get(), 64);
    auto catalog = ReadCatalog(&pool);
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
    ASSERT_EQ(catalog->tables.size(), 2u);
    ColumnSegmentInfo& narrow = catalog->tables[0].columnar.segments.at(0);
    const ColumnSegmentInfo& wide = catalog->tables[1].columnar.segments.at(0);
    ASSERT_EQ(narrow.rows, wide.rows);
    narrow.first_page = wide.first_page;
    narrow.pages = pages = wide.pages;
    narrow.encoded_bytes = wide.encoded_bytes;
    ASSERT_TRUE(WriteCatalog(&pool, EncodeCatalog(*catalog)).ok());
    ASSERT_TRUE(pool.FlushAll().ok());
    ASSERT_TRUE((*pager)->Sync().ok());
  }
  DatabaseOptions options;
  options.create_if_missing = false;
  auto db = Database::Open(col_path_, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto table = (*db)->GetTable("narrow");
  ASSERT_TRUE(table.ok());
  ExpectSegmentQuarantined(**table, kRows, pages);
}

// A raw column whose payload_bytes says 8 (the difference added to the
// next column, so the directory total still matches): each column's
// payload must be the size its encoding decodes `rows` values from, or
// the cursor reads past the assembled payload.
TEST_F(ColumnarDifferentialTest, PayloadSizeDisagreeingWithRowsIsQuarantined) {
  constexpr size_t kRows = 200;
  {
    auto db = Database::Open(col_path_, DatabaseOptions{});
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto table = (*db)->CreateTable("f", DoubleSchema({"dt", "dv"}).value());
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    std::vector<double> records;
    Rng rng(9);
    for (size_t i = 0; i < kRows; ++i) {
      records.push_back(rng.Uniform(-1.0, 1.0) * 1e300);  // encodes raw
      records.push_back(static_cast<double>(i));
    }
    ASSERT_TRUE((*table)
                    ->AppendColumnarSegment(
                        reinterpret_cast<const char*>(records.data()), kRows)
                    .ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  uint32_t pages = 0;
  {
    auto pager = Pager::Open(col_path_, /*create=*/false);
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    BufferPool pool(pager->get(), 64);
    auto catalog = ReadCatalog(&pool);
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
    const ColumnSegmentInfo& info =
        catalog->tables.at(0).columnar.segments.at(0);
    pages = info.pages;
    auto page = pool.FetchMut(info.first_page);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    // Chain header (16 bytes), segment header (16), then 32 bytes per
    // column: encoding at +0, payload_bytes at +4.
    char* dir = page->data() + 16 + 16;
    ASSERT_EQ(static_cast<ColumnEncoding>(dir[0]), ColumnEncoding::kRaw);
    ASSERT_EQ(DecodeFixed32(dir + 4), kRows * 8);
    EncodeFixed32(dir + 4, 8);
    EncodeFixed32(dir + 32 + 4, DecodeFixed32(dir + 32 + 4) + kRows * 8 - 8);
    page->MarkDirty();
    page->Release();
    ASSERT_TRUE(pool.FlushAll().ok());
    ASSERT_TRUE((*pager)->Sync().ok());
  }
  DatabaseOptions options;
  options.create_if_missing = false;
  auto db = Database::Open(col_path_, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto table = (*db)->GetTable("f");
  ASSERT_TRUE(table.ok());
  ExpectSegmentQuarantined(**table, kRows, pages);
}

// Crafted XOR bits inside a valid directory: each payload keeps the
// length the encoder gave it, so the segment opens and its pages pass
// their checksums. The cursor refuses the bits, the decoder names the
// segment's first page, and the scan fails whether it materializes rows,
// counts, or routes quarantined pages around: a segment that already
// emitted rows cannot be skipped.
TEST_F(ColumnarDifferentialTest, MalformedXorBitsFailTheScan) {
  constexpr size_t kRows = 200;
  // An off-grid constant whose last value changes 48 bits: XOR-coded in
  // 41 bytes, which every malformed stream fits (see
  // MalformedXorStreams).
  std::vector<double> values(kRows, 1.0 / 3.0);
  values.back() = std::bit_cast<double>(
      std::bit_cast<uint64_t>(values.back()) ^ (0xFFFFFFFFFFFFull << 4));
  {
    auto db = Database::Open(col_path_, DatabaseOptions{});
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto table = (*db)->CreateTable("f", DoubleSchema({"v"}).value());
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    ASSERT_TRUE((*table)
                    ->AppendColumnarSegment(
                        reinterpret_cast<const char*>(values.data()), kRows)
                    .ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  PageId first_page = kInvalidPageId;
  size_t payload_bytes = 0;
  {
    auto pager = Pager::Open(col_path_, /*create=*/false);
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    BufferPool pool(pager->get(), 64);
    auto catalog = ReadCatalog(&pool);
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
    first_page = catalog->tables.at(0).columnar.segments.at(0).first_page;
    auto page = pool.Fetch(first_page);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    // Chain header (16 bytes), segment header (16), the directory entry.
    const char* dir = page->data() + 16 + 16;
    ASSERT_EQ(static_cast<ColumnEncoding>(dir[0]), ColumnEncoding::kXor);
    payload_bytes = DecodeFixed32(dir + 4);
    ASSERT_EQ(payload_bytes, 41u);
  }
  for (const MalformedXor& c : MalformedXorStreams(kRows, payload_bytes)) {
    SCOPED_TRACE(c.name);
    {
      auto pager = Pager::Open(col_path_, /*create=*/false);
      ASSERT_TRUE(pager.ok()) << pager.status().ToString();
      BufferPool pool(pager->get(), 64);
      auto page = pool.FetchMut(first_page);
      ASSERT_TRUE(page.ok()) << page.status().ToString();
      std::memcpy(page->data() + 16 + 16 + 32, c.payload.data(),
                  c.payload.size());
      page->MarkDirty();
      page->Release();
      ASSERT_TRUE(pool.FlushAll().ok());
      ASSERT_TRUE((*pager)->Sync().ok());
    }
    DatabaseOptions options;
    options.create_if_missing = false;
    auto db = Database::Open(col_path_, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto table = (*db)->GetTable("f");
    ASSERT_TRUE(table.ok());
    const std::string page_name = "page " + std::to_string(first_page);
    const Status plain = SeqScan(**table, Predicate::True(),
                                 [](const char*, RecordId) {
                                   return Status::OK();
                                 });
    EXPECT_TRUE(plain.IsCorruption()) << plain.ToString();
    EXPECT_NE(std::string(plain.message()).find(page_name),
              std::string::npos)
        << plain.ToString();
    Predicate any_value;
    any_value.And(0, CmpOp::kGe, -kInf);
    EXPECT_TRUE(SeqScan(**table, any_value, nullptr, nullptr).IsCorruption());
    SeqScanOptions partial;
    partial.skip_quarantined = true;
    EXPECT_TRUE(SeqScan(**table, Predicate::True(),
                        [](const char*, RecordId) { return Status::OK(); },
                        nullptr, partial)
                    .IsCorruption());
  }
}

TEST_F(ColumnarDifferentialTest, SqlEndToEndAgreesAcrossFormats) {
  Build(SensorRows(8000, 29));
  sql::Engine row_engine(row_db_.get());
  sql::Engine col_engine(col_db_.get());
  const char* kQueries[] = {
      "SELECT count(*) FROM f",
      "SELECT count(*) FROM f WHERE dv <= -3",
      "SELECT min(dv) FROM f WHERE dt <= 100000",
      "SELECT sum(dv) FROM f WHERE dv >= 2 AND dt <= 300000",
      "SELECT * FROM f WHERE dv <= -7.5 ORDER BY dt LIMIT 17",
  };
  // The stats comment line reports physical page counts, which
  // legitimately differ across formats; everything else must match.
  auto strip_stats = [](std::string text) {
    std::string out;
    size_t pos = 0;
    while (pos < text.size()) {
      const size_t eol = text.find('\n', pos);
      const size_t end = eol == std::string::npos ? text.size() : eol + 1;
      if (text.compare(pos, 9, "-- pages ") != 0) {
        out.append(text, pos, end - pos);
      }
      pos = end;
    }
    return out;
  };
  for (const char* query : kQueries) {
    auto row_result = row_engine.Execute(query);
    auto col_result = col_engine.Execute(query);
    ASSERT_TRUE(row_result.ok()) << query;
    ASSERT_TRUE(col_result.ok()) << query;
    EXPECT_EQ(strip_stats(sql::FormatResult(*row_result)),
              strip_stats(sql::FormatResult(*col_result)))
        << query;
  }
}

TEST_F(ColumnarDifferentialTest, ReopenRestoresSegmentDirectory) {
  Build(SensorRows(6000, 31));
  const ColumnStoreMeta before = col_table_->columnar()->meta();
  ASSERT_TRUE(col_db_->Checkpoint().ok());
  col_db_.reset();

  DatabaseOptions options;
  options.create_if_missing = false;
  auto reopened = Database::Open(col_path_, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto table = (*reopened)->GetTable("f");
  ASSERT_TRUE(table.ok());
  const ColumnStore* store = (*table)->columnar();
  ASSERT_NE(store, nullptr) << "catalog v3 lost the segment directory";
  const ColumnStoreMeta& after = store->meta();
  ASSERT_EQ(after.segments.size(), before.segments.size());
  EXPECT_EQ(after.row_count, before.row_count);
  EXPECT_EQ(after.page_count, before.page_count);
  EXPECT_EQ(after.encoded_bytes, before.encoded_bytes);
  for (size_t s = 0; s < after.segments.size(); ++s) {
    EXPECT_EQ(after.segments[s].first_page, before.segments[s].first_page);
    EXPECT_EQ(after.segments[s].rows, before.segments[s].rows);
    EXPECT_EQ(after.segments[s].nan_mask, before.segments[s].nan_mask);
    EXPECT_EQ(after.segments[s].min, before.segments[s].min);
    EXPECT_EQ(after.segments[s].max, before.segments[s].max);
  }
  ASSERT_TRUE((*table)->EnsureZoneMap().ok());
  ScanStats stats;
  ASSERT_TRUE(SeqScan(**table, Predicate{}, nullptr, &stats).ok());
  EXPECT_EQ(stats.rows_matched, before.row_count);
  col_db_ = std::move(reopened).value();
  col_table_ = *table;
}

// The PR 4 contract, re-proved on columnar pages: segment pruning must
// not mask corruption. A pruned segment's pages are still fetched — and
// checksum-verified — before the prune decision; only the decode is
// skipped. A flipped byte therefore fails the scan even under a
// predicate no row could ever match.
TEST_F(ColumnarDifferentialTest, PrunedCorruptColumnarPageStillDetected) {
  Build(SensorRows(10000, 37));
  const ColumnStore* store = col_table_->columnar();
  ASSERT_NE(store, nullptr);
  ASSERT_GE(store->segment_count(), 2u);
  const PageId victim = store->meta().segments[1].first_page;
  ASSERT_TRUE(col_db_->Checkpoint().ok());
  col_db_.reset();

  // Flip one byte inside the victim page's payload.
  {
    auto file = Vfs::Default()->OpenFile(col_path_, /*create=*/false);
    ASSERT_TRUE(file.ok());
    char b = 0;
    ASSERT_TRUE((*file)->Read(victim * kPageSize + 300, 1, &b).ok());
    b ^= 0x20;
    ASSERT_TRUE((*file)->Write(victim * kPageSize + 300, &b, 1).ok());
    ASSERT_TRUE((*file)->Sync().ok());
  }

  DatabaseOptions options;
  options.create_if_missing = false;
  auto db = Database::Open(col_path_, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  (*db)->Abandon();  // keep the evidence on disk
  auto table = (*db)->GetTable("f");
  ASSERT_TRUE(table.ok());

  Predicate impossible;
  impossible.And(0, CmpOp::kGt, 1e18);  // every segment prunes
  Status status = SeqScan(**table, impossible, nullptr, nullptr);
  ASSERT_TRUE(status.IsCorruption())
      << "pruned columnar scan masked a corrupt page: " << status.ToString();
  EXPECT_NE(
      std::string(status.message()).find("page " + std::to_string(victim)),
      std::string::npos)
      << status.ToString();
  col_db_ = std::move(db).value();
}

}  // namespace
}  // namespace segdiff
