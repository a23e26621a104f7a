// The one byte codec (common/bytes.h) and the decoders built on it.
//
// ByteCodecTest pins the codec's own contract: round trips, bounded
// counts, the end-of-blob check and the CRC32C seal. DecoderSweepTest
// holds every decoder of a persisted blob to the rule they share: fed
// any proper prefix of a valid encoding, or the encoding plus one byte,
// it fails with Corruption — never crashes, never succeeds.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_paths.h"

#include "common/bytes.h"
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

TEST(ByteCodecTest, RoundTripsEveryField) {
  ByteWriter w;
  w.U8(0xAB);
  w.U16(0xBEEF);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFull);
  w.F64(-0.0);
  w.Str("sensor");
  w.Bytes("xyz", 3);
  const std::string blob = w.Take();
  ASSERT_EQ(blob.size(), 1 + 2 + 4 + 8 + 8 + 2 + 6 + 3u);

  ByteReader r(blob);
  EXPECT_EQ(*r.U8(), 0xAB);
  EXPECT_EQ(*r.U16(), 0xBEEF);
  EXPECT_EQ(*r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.U64(), 0x0123456789ABCDEFull);
  const double zero = *r.F64();
  EXPECT_TRUE(zero == 0.0 && std::signbit(zero));
  EXPECT_EQ(*r.Str(), "sensor");
  EXPECT_FALSE(r.End().ok());
  EXPECT_EQ(*r.Bytes(3), "xyz");
  EXPECT_TRUE(r.End().ok());
  EXPECT_TRUE(r.U8().status().IsCorruption());
}

TEST(ByteCodecTest, CountRefusesElementsThatCannotFit) {
  ByteWriter w;
  w.U32(3);
  w.Bytes(std::string(3 * 16, 'x'));
  const std::string blob = w.Take();
  {
    ByteReader r(blob);
    Result<uint32_t> count = r.Count(16);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_EQ(*count, 3u);
  }
  {
    ByteReader r(blob);  // 3 elements of 17 bytes need 51 of 48
    EXPECT_TRUE(r.Count(17).status().IsCorruption());
  }
  ByteWriter huge;
  huge.U32(0xFFFFFFFFu);
  EXPECT_TRUE(ByteReader(huge.str()).Count(1).status().IsCorruption());
  ByteWriter wide;  // a u64 count, as zone maps and series files store
  wide.U64(std::numeric_limits<uint64_t>::max());
  wide.U64(0);
  EXPECT_TRUE(
      ByteReader(wide.str()).Count<uint64_t>(1).status().IsCorruption());
  ByteWriter empty;
  empty.U64(0);
  ByteReader r(empty.str());
  EXPECT_EQ(*r.Count<uint64_t>(8), 0u);
  EXPECT_TRUE(r.End().ok());
}

TEST(ByteCodecTest, UnsealVerifiesTheCrc) {
  ByteWriter w;
  w.U64(42);
  w.Str("shard00000");
  w.Seal();
  const std::string sealed = w.Take();
  {
    Result<ByteReader> r = ByteReader::Unseal(sealed.data(), sealed.size());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(*r->U64(), 42u);
    EXPECT_EQ(*r->Str(), "shard00000");
    EXPECT_TRUE(r->End().ok());
  }
  for (size_t i = 0; i < sealed.size(); ++i) {
    std::string flipped = sealed;
    flipped[i] ^= 0x10;
    EXPECT_TRUE(ByteReader::Unseal(flipped.data(), flipped.size())
                    .status()
                    .IsCorruption())
        << "bit flip at byte " << i;
  }
  EXPECT_TRUE(ByteReader::Unseal(sealed.data(), 3).status().IsCorruption());
}

/// Runs `decode` on every proper prefix of `encoding` and on it plus one
/// byte; each must fail with Corruption.
template <typename Decode>
void SweepPrefixesAndOneMore(const std::string& encoding,
                             const Decode& decode) {
  ASSERT_FALSE(encoding.empty());
  for (size_t n = 0; n < encoding.size(); ++n) {
    const Status status = decode(encoding.substr(0, n));
    ASSERT_TRUE(status.IsCorruption())
        << "prefix of " << n << " of " << encoding.size()
        << " bytes: " << status.ToString();
  }
  const Status status = decode(encoding + '\0');
  EXPECT_TRUE(status.IsCorruption())
      << "one trailing byte: " << status.ToString();
}

TEST(DecoderSweepTest, Catalog) {
  CatalogData catalog;
  TableMeta table;
  table.name = "f";
  table.schema = DoubleSchema({"dt", "dv"}).value();
  table.heap = HeapFileMeta{5, 9, 300, 5};
  table.indexes.push_back(IndexMeta{"ix", {0, 1}, 12});
  ColumnSegmentInfo segment;
  segment.first_page = 20;
  segment.rows = 100;
  segment.pages = 1;
  segment.encoded_bytes = 900;
  segment.min = {0.0, -1.0};
  segment.max = {10.0, 1.0};
  table.columnar.segments.push_back(segment);
  catalog.tables.push_back(table);
  catalog.blobs["segdiff.ingest"] = "state";
  const std::string payload = EncodeCatalog(catalog);
  Result<CatalogData> decoded = DecodeCatalog(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(EncodeCatalog(*decoded), payload);
  SweepPrefixesAndOneMore(payload, [](const std::string& bytes) {
    return DecodeCatalog(bytes).status();
  });
}

TEST(DecoderSweepTest, ShardCatalog) {
  const std::string encoding = ShardCatalog::Place(7, 3).Encode();
  ASSERT_TRUE(ShardCatalog::Decode(encoding.data(), encoding.size(), "CATALOG")
                  .ok());
  SweepPrefixesAndOneMore(encoding, [](const std::string& bytes) {
    return ShardCatalog::Decode(bytes.data(), bytes.size(), "CATALOG")
        .status();
  });
}

TEST(DecoderSweepTest, MigrationManifest) {
  Vfs* vfs = Vfs::Default();
  const std::string root = UniqueTestPath("sweep", "_transect");
  (void)vfs->MakeDir(root);  // may exist from an earlier run
  MigrationManifest manifest;
  manifest.source = ShardCatalog::Place(5, 2);
  manifest.target = ShardCatalog::Place(5, 3, "g3-shard");
  ASSERT_TRUE(manifest.Save(vfs, root).ok());
  ASSERT_TRUE(MigrationManifest::Load(vfs, root).ok());
  const std::string path = root + "/" + MigrationManifest::kFileName;
  std::string encoding;
  {
    std::ifstream in(path, std::ios::binary);
    encoding.assign(std::istreambuf_iterator<char>(in), {});
  }
  SweepPrefixesAndOneMore(encoding, [&](const std::string& bytes) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    return MigrationManifest::Load(vfs, root).status();
  });
  std::remove(path.c_str());
  (void)vfs->RemoveDir(root);
}

TEST(DecoderSweepTest, WalPayloads) {
  // One record of each payload kind, written by the WAL's own builders
  // and read back through a fresh Open's recovery scan.
  const std::string db_path = UniqueTestPath("sweep", ".db");
  std::remove(Wal::PathFor(db_path).c_str());
  WalOptions options;
  options.group_commit_ms = 0;
  const std::string row(24, '\x5a');
  const std::string page(kPageCapacity, '\x33');
  {
    auto wal = Wal::Open(Vfs::Default(), db_path, options, 1);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_TRUE((*wal)->AppendObservation(60.0, -1.5).ok());
    ASSERT_TRUE((*wal)->AppendRowAppend("f", 4, row.data(), row.size()).ok());
    ASSERT_TRUE((*wal)->AppendUndoImage(7, page.data(), page.size()).ok());
    ASSERT_TRUE((*wal)->Close().ok());
  }
  auto wal = Wal::Open(Vfs::Default(), db_path, options, 1);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  const std::vector<WalRecord> records = (*wal)->TakeRecoveredRecords();
  ASSERT_EQ(records.size(), 3u);
  auto row_bytes = [&](const std::string& table) -> Result<size_t> {
    if (table != "f") {
      return Status::Corruption("unknown table " + table);
    }
    return row.size();
  };

  Result<WalObservation> obs = DecodeWalObservation(records[0].payload);
  ASSERT_TRUE(obs.ok()) << obs.status().ToString();
  EXPECT_EQ(obs->t, 60.0);
  EXPECT_EQ(obs->v, -1.5);
  SweepPrefixesAndOneMore(records[0].payload, [](const std::string& bytes) {
    return DecodeWalObservation(bytes).status();
  });

  Result<WalRowAppend> append =
      DecodeWalRowAppend(records[1].payload, row_bytes);
  ASSERT_TRUE(append.ok()) << append.status().ToString();
  EXPECT_EQ(append->table, "f");
  EXPECT_EQ(append->ordinal, 4u);
  EXPECT_EQ(append->row, row);
  SweepPrefixesAndOneMore(records[1].payload, [&](const std::string& bytes) {
    return DecodeWalRowAppend(bytes, row_bytes).status();
  });

  Result<WalUndoImage> image = DecodeWalUndoImage(records[2].payload);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(image->page_id, 7u);
  EXPECT_EQ(image->image, page);
  SweepPrefixesAndOneMore(records[2].payload, [](const std::string& bytes) {
    return DecodeWalUndoImage(bytes).status();
  });
  ASSERT_TRUE((*wal)->Close().ok());
  std::remove(Wal::PathFor(db_path).c_str());
}

TEST(DecoderSweepTest, ZoneMap) {
  ZoneMap map(2);
  for (uint32_t i = 0; i < 20; ++i) {
    const double row[2] = {1.0 * i, -2.0 * i};
    map.OnAppend(RecordId{30 + i / 8, i % 8},
                 reinterpret_cast<const char*>(row));
  }
  const std::string blob = map.Serialize();
  ASSERT_TRUE(ZoneMap::Deserialize(blob).ok());
  SweepPrefixesAndOneMore(blob, [](const std::string& bytes) {
    return ZoneMap::Deserialize(bytes).status();
  });
}

/// Sweeps an engine's ingest-state blob through Open: the store is built
/// once, then reopened with every prefix (and one extra byte) of its
/// blob patched in.
template <typename Index, typename Options>
void SweepIngestState(const std::string& path, const Options& options,
                      const char* key) {
  std::remove(path.c_str());
  std::remove(Wal::PathFor(path).c_str());
  {
    auto store = Index::Open(path, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE((*store)->AppendObservation(60.0 * i, (i % 17) * 0.5).ok());
    }
  }
  DatabaseOptions raw_options;
  raw_options.create_if_missing = false;
  auto patch = [&](const std::string& blob) {
    auto raw = Database::Open(path, raw_options);
    EXPECT_TRUE(raw.ok()) << raw.status().ToString();
    EXPECT_TRUE((*raw)->PutMeta(key, blob).ok());
    EXPECT_TRUE((*raw)->Checkpoint().ok());
  };
  std::string encoding;
  {
    auto raw = Database::Open(path, raw_options);
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    auto blob = (*raw)->GetMeta(key);
    ASSERT_TRUE(blob.ok()) << blob.status().ToString();
    encoding = *blob;
  }
  SweepPrefixesAndOneMore(encoding, [&](const std::string& bytes) {
    patch(bytes);
    return Index::Open(path, options).status();
  });
  patch(encoding);
  EXPECT_TRUE(Index::Open(path, options).ok());
  std::remove(path.c_str());
  std::remove(Wal::PathFor(path).c_str());
}

TEST(DecoderSweepTest, SegDiffIngestState) {
  SegDiffOptions options;
  options.window_s = 3600.0;
  SweepIngestState<SegDiffIndex>(UniqueTestPath("sweep"), options,
                                 "segdiff.ingest");
}

TEST(DecoderSweepTest, ExhIngestState) {
  ExhOptions options;
  options.window_s = 600.0;
  SweepIngestState<ExhIndex>(UniqueTestPath("sweep"), options, "exh.ingest");
}

TEST(DecoderSweepTest, ColumnSegmentHeader) {
  // A first page whose payload-size field cuts the CSG1 header or its
  // directory short.
  const std::string path = UniqueTestPath("sweep");
  std::remove(path.c_str());
  auto db = Database::Open(path, DatabaseOptions{});
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto table = (*db)->CreateTable("f", DoubleSchema({"a", "b", "c"}).value());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  std::vector<double> records;
  for (int i = 0; i < 500; ++i) {
    records.insert(records.end(), {1.0 * i, 0.25 * (i % 5), -3.0});
  }
  ASSERT_TRUE((*table)
                  ->AppendColumnarSegment(
                      reinterpret_cast<const char*>(records.data()), 500)
                  .ok());
  const ColumnSegmentInfo info = (*table)->columnar()->meta().segments[0];
  BufferPool* pool = (*db)->buffer_pool();
  ASSERT_TRUE(ColumnSegmentHandle::Open(pool, info).ok());
  constexpr size_t kHeaderBytes = 16 + 3 * 32;
  uint16_t original = 0;
  for (uint16_t cut = 0; cut <= kHeaderBytes; ++cut) {
    {
      auto page = pool->FetchMut(info.first_page);
      ASSERT_TRUE(page.ok()) << page.status().ToString();
      if (cut == 0) {
        original = DecodeFixed16(page->data() + 8);
      }
      EncodeFixed16(page->data() + 8, cut < kHeaderBytes ? cut : original);
      page->MarkDirty();
    }
    const Status status = ColumnSegmentHandle::Open(pool, info).status();
    if (cut < kHeaderBytes) {
      EXPECT_TRUE(status.IsCorruption())
          << "payload size " << cut << ": " << status.ToString();
    } else {
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
  }
  db->reset();
  std::remove(path.c_str());
  std::remove(Wal::PathFor(path).c_str());
}

}  // namespace
}  // namespace segdiff
