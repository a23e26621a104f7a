// Pins every persisted blob format byte for byte.
//
// Each test encodes fixed inputs with a public encoder and compares the
// bytes against a fingerprint recorded from an earlier build of the
// encoder: the length and a 64-bit FNV-1a hash. FNV-1a is used because
// several of these blobs end in their own CRC32C, and the CRC32C of data
// followed by its own CRC32C is the same residue for every input, so a
// CRC32C fingerprint would pin nothing.
//
// A failing test prints the new fingerprint. A deliberate format change
// updates the constant together with the format's version number, so
// stores in the old format fail to open loudly (DESIGN §9).

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_paths.h"

#include "common/vfs.h"
#include "segdiff/exh_index.h"
#include "segdiff/segdiff_index.h"
#include "segdiff/shard_catalog.h"
#include "storage/catalog.h"
#include "storage/column_page.h"
#include "storage/db.h"
#include "storage/wal.h"
#include "storage/zone_map.h"

namespace segdiff {
namespace {

struct Fingerprint {
  size_t size;
  uint64_t fnv1a;
};

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

void ExpectFingerprint(const std::string& bytes, Fingerprint expected) {
  char actual[64];
  std::snprintf(actual, sizeof(actual), "{%zu, 0x%016llxull}", bytes.size(),
                static_cast<unsigned long long>(Fnv1a64(bytes)));
  EXPECT_EQ(bytes.size(), expected.size) << "actual " << actual;
  EXPECT_EQ(Fnv1a64(bytes), expected.fnv1a) << "actual " << actual;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Deterministic doubles with arbitrary mantissas (no decimal grid).
double Scrambled(uint64_t i) {
  uint64_t x = (i + 1) * 0x9E3779B97F4A7C15ull;
  x ^= x >> 29;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 32;
  return static_cast<double>(x >> 11) * 0x1.0p-40 - 2048.0;
}

TEST(FormatGoldenTest, Catalog) {
  CatalogData catalog;
  TableMeta rows;
  rows.name = "drop1";
  rows.schema = TableSchema::Create({{"dt", ColumnType::kDouble},
                                     {"dv", ColumnType::kDouble},
                                     {"id", ColumnType::kInt64}})
                    .value();
  rows.heap = HeapFileMeta{5, 17, 1234, 13};
  rows.indexes.push_back(IndexMeta{"drop1_dt_dv", {0, 1}, 21});
  rows.indexes.push_back(IndexMeta{"drop1_id", {2}, 40});
  catalog.tables.push_back(rows);

  TableMeta columnar;
  columnar.name = "segments";
  columnar.schema = TableSchema::Create({{"t_start", ColumnType::kDouble},
                                         {"v_start", ColumnType::kDouble}})
                        .value();
  columnar.heap = HeapFileMeta{60, 60, 7, 1};
  ColumnSegmentInfo first;
  first.first_page = 61;
  first.rows = 4096;
  first.pages = 3;
  first.encoded_bytes = 20000;
  first.nan_mask = 2;
  first.min = {0.0, -3.5};
  first.max = {86400.0, 12.25};
  ColumnSegmentInfo second;  // stats narrower than the table: padded
  second.first_page = 64;
  second.rows = 10;
  second.pages = 1;
  second.encoded_bytes = 200;
  second.min = {90000.0};
  second.max = {90900.0};
  columnar.columnar.segments = {first, second};
  catalog.tables.push_back(columnar);

  catalog.blobs["exh.ingest"] = std::string("\x01\x00\xff", 3);
  catalog.blobs["segdiff.ingest"] = "state";
  catalog.blobs["zonemap.drop1"] = "";
  ExpectFingerprint(EncodeCatalog(catalog), {378, 0x5c071e48e09855d1ull});
  ExpectFingerprint(EncodeCatalog(CatalogData{}),
                    {16, 0x27aba1579528a0c4ull});
}

TEST(FormatGoldenTest, ShardCatalogAndMigrationManifest) {
  const ShardCatalog source = ShardCatalog::Place(5, 2);
  const ShardCatalog target = ShardCatalog::Place(5, 3, "g3-shard");
  ExpectFingerprint(source.Encode(), {84, 0xfad0ef7d3b8be589ull});
  ExpectFingerprint(target.Encode(), {70, 0x9957620bc84a6183ull});

  const std::string root = UniqueTestPath("golden", "_transect");
  (void)Vfs::Default()->MakeDir(root);  // may exist from an earlier run
  MigrationManifest manifest;
  manifest.source = source;
  manifest.target = target;
  ASSERT_TRUE(manifest.Save(Vfs::Default(), root).ok());
  const std::string path = root + "/" + MigrationManifest::kFileName;
  ExpectFingerprint(ReadWholeFile(path), {174, 0x06587ca562a979e9ull});
  std::remove(path.c_str());
  (void)Vfs::Default()->RemoveDir(root);
}

TEST(FormatGoldenTest, WalOneRecordOfEachKind) {
  const std::string db_path = UniqueTestPath("golden", ".db");
  const std::string wal_path = Wal::PathFor(db_path);
  std::remove(wal_path.c_str());
  {
    WalOptions options;
    options.group_commit_ms = 0;
    auto wal = Wal::Open(Vfs::Default(), db_path, options,
                         /*min_next_lsn=*/42);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_TRUE((*wal)->AppendObservation(3600.5, -2.25).ok());
    ASSERT_TRUE((*wal)->AppendFlushMarker().ok());
    std::vector<char> row(24);
    for (size_t i = 0; i < row.size(); ++i) {
      row[i] = static_cast<char>(i * 7 + 1);
    }
    ASSERT_TRUE(
        (*wal)->AppendRowAppend("drop1", 77, row.data(), row.size()).ok());
    std::vector<char> image(kPageCapacity);
    for (size_t i = 0; i < image.size(); ++i) {
      image[i] = static_cast<char>((i * 31) ^ (i >> 8));
    }
    ASSERT_TRUE((*wal)->AppendUndoImage(9, image.data(), image.size()).ok());
    ASSERT_TRUE((*wal)->Close().ok());
  }
  ExpectFingerprint(ReadWholeFile(wal_path), {8347, 0x444524b674555a14ull});
  std::remove(wal_path.c_str());
}

TEST(FormatGoldenTest, ColumnSegmentEveryEncoding) {
  // One column per encoding: a time grid (delta), a coarse decimal grid
  // (frame of reference), a smooth non-decimal curve with a NaN (XOR),
  // and scrambled mantissas (raw).
  constexpr size_t kColumns = 4;
  constexpr size_t kRows = 300;
  std::vector<double> values;
  for (size_t i = 0; i < kRows; ++i) {
    values.push_back(1.2e9 + 60.0 * static_cast<double>(i));
    values.push_back(20.0 + 0.25 * static_cast<double>(i % 9));
    values.push_back(i == 17 ? std::nan("") : std::sin(0.01 * i) / 3.0);
    values.push_back(Scrambled(i));
  }
  std::string records(values.size() * 8, '\0');
  std::memcpy(records.data(), values.data(), records.size());
  ExpectFingerprint(EncodeColumnSegment(records.data(), kColumns, kRows),
                    {5340, 0x4ad243db4497e832ull});
}

TEST(FormatGoldenTest, ZoneMap) {
  ZoneMap map(3);
  for (uint32_t i = 0; i < 40; ++i) {
    const double row[3] = {static_cast<double>(i) * 1.5,
                           i % 5 == 0 ? std::nan("") : -0.5 * i,
                           Scrambled(i)};
    map.OnAppend(RecordId{100 + i / 16, i % 16},
                 reinterpret_cast<const char*>(row));
  }
  ExpectFingerprint(map.Serialize(), {209, 0x8809062ee5dcd454ull});
}

/// A fixed two-day series with a few drops and jumps.
std::vector<std::pair<double, double>> GoldenSeries() {
  std::vector<std::pair<double, double>> series;
  for (int i = 0; i < 2 * 288; ++i) {
    const double t = 300.0 * i;
    double v = 15.0 + 4.0 * std::sin(t / 86400.0 * 6.283185307179586);
    if (i % 97 > 90) {
      v -= 3.0 * (i % 97 - 90);
    }
    series.emplace_back(t, std::round(v * 100.0) / 100.0);
  }
  return series;
}

std::string StoredBlob(const std::string& path, const std::string& key) {
  DatabaseOptions options;
  options.create_if_missing = false;
  auto db = Database::Open(path, options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  if (!db.ok()) return "";
  auto blob = (*db)->GetMeta(key);
  EXPECT_TRUE(blob.ok()) << blob.status().ToString();
  return blob.ok() ? *blob : "";
}

TEST(FormatGoldenTest, SegDiffIngestState) {
  const std::string path = UniqueTestPath("golden", "_segdiff.db");
  std::remove(path.c_str());
  std::remove(Wal::PathFor(path).c_str());
  {
    SegDiffOptions options;
    options.eps = 0.3;
    options.window_s = 4 * 3600.0;
    auto store = SegDiffIndex::Open(path, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (const auto& [t, v] : GoldenSeries()) {
      ASSERT_TRUE((*store)->AppendObservation(t, v).ok());
    }
  }
  ExpectFingerprint(StoredBlob(path, "segdiff.ingest"),
                    {370, 0x93e5ba697f482240ull});
  std::remove(path.c_str());
  std::remove(Wal::PathFor(path).c_str());
}

TEST(FormatGoldenTest, ExhIngestState) {
  const std::string path = UniqueTestPath("golden", "_exh.db");
  std::remove(path.c_str());
  std::remove(Wal::PathFor(path).c_str());
  {
    ExhOptions options;
    options.window_s = 1800.0;
    auto store = ExhIndex::Open(path, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (const auto& [t, v] : GoldenSeries()) {
      ASSERT_TRUE((*store)->AppendObservation(t, v).ok());
    }
  }
  ExpectFingerprint(StoredBlob(path, "exh.ingest"),
                    {140, 0x4f13c93bba0dec9dull});
  std::remove(path.c_str());
  std::remove(Wal::PathFor(path).c_str());
}

}  // namespace
}  // namespace segdiff
