// Edge cases of the storage substrate: exact page-fit record sizes,
// LRU victim order, coding round trips, and odd-arity index coverage.

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "test_paths.h"

#include "common/coding.h"
#include "common/random.h"
#include "index/bplus_tree.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "storage/pager.h"

namespace segdiff {
namespace {

TEST(CodingTest, RoundTrips) {
  char buf[8];
  EncodeFixed32(buf, 0xDEADBEEFu);
  EXPECT_EQ(DecodeFixed32(buf), 0xDEADBEEFu);
  EncodeFixed64(buf, 0x0123456789ABCDEFull);
  EXPECT_EQ(DecodeFixed64(buf), 0x0123456789ABCDEFull);
  EncodeFixed16(buf, 0xBEEF);
  EXPECT_EQ(DecodeFixed16(buf), 0xBEEF);
  for (double v : {-0.0, 1.5e-300, -3.7e300, 42.0}) {
    EncodeDouble(buf, v);
    EXPECT_EQ(DecodeDouble(buf), v);
  }
  // NaN round-trips bit-exactly through the byte copy.
  EncodeDouble(buf, std::numeric_limits<double>::quiet_NaN());
  EXPECT_NE(DecodeDouble(buf), DecodeDouble(buf));  // NaN != NaN
}

class StorageEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("segdiff_storage_edge");
    std::remove(path_.c_str());
    auto pager = Pager::Open(path_, true);
    ASSERT_TRUE(pager.ok());
    pager_ = std::move(pager).value();
  }
  void TearDown() override {
    pager_.reset();
    std::remove(path_.c_str());
  }
  std::string path_;
  std::unique_ptr<Pager> pager_;
};

TEST_F(StorageEdgeTest, HeapRecordExactlyFillsPage) {
  BufferPool pool(pager_.get(), 16);
  // Largest record that fits: one record per page (the checksum trailer
  // comes out of the usable capacity).
  const size_t record_bytes = kPageCapacity - HeapFile::kHeaderBytes;
  auto heap = HeapFile::Create(&pool, record_bytes);
  ASSERT_TRUE(heap.ok());
  EXPECT_EQ(heap->records_per_page(), 1u);
  std::vector<char> record(record_bytes, 'x');
  for (int i = 0; i < 10; ++i) {
    record[0] = static_cast<char>('a' + i);
    ASSERT_TRUE(heap->Append(record.data()).ok());
  }
  EXPECT_EQ(heap->meta().page_count, 10u);
  int seen = 0;
  ASSERT_TRUE(heap->Scan([&](const char* data, RecordId) {
                    EXPECT_EQ(data[0], static_cast<char>('a' + seen));
                    EXPECT_EQ(data[record_bytes - 1], 'x');
                    ++seen;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(seen, 10);
}

TEST_F(StorageEdgeTest, LruEvictsLeastRecentlyUsed) {
  BufferPool pool(pager_.get(), 3);
  PageId pages[4];
  for (int i = 0; i < 3; ++i) {
    auto handle = pool.AllocatePinned();
    ASSERT_TRUE(handle.ok());
    pages[i] = handle->page_id();
  }
  // Touch page 0 so page 1 becomes the LRU victim.
  { auto h = pool.Fetch(pages[0]); ASSERT_TRUE(h.ok()); }
  {
    auto handle = pool.AllocatePinned();  // forces one eviction
    ASSERT_TRUE(handle.ok());
    pages[3] = handle->page_id();
  }
  const uint64_t misses_before = pool.stats().misses;
  { auto h = pool.Fetch(pages[0]); ASSERT_TRUE(h.ok()); }  // still cached
  { auto h = pool.Fetch(pages[2]); ASSERT_TRUE(h.ok()); }  // still cached
  EXPECT_EQ(pool.stats().misses, misses_before);
  { auto h = pool.Fetch(pages[1]); ASSERT_TRUE(h.ok()); }  // was evicted
  EXPECT_EQ(pool.stats().misses, misses_before + 1);
}

TEST_F(StorageEdgeTest, Arity3IndexRangeScan) {
  BufferPool pool(pager_.get(), 256);
  auto tree = BPlusTree::Create(&pool, 3);
  ASSERT_TRUE(tree.ok());
  Rng rng(5);
  int in_range = 0;
  for (int i = 0; i < 5000; ++i) {
    IndexKey key;
    key.vals[0] = rng.UniformInt(0, 9);
    key.vals[1] = rng.Uniform(-1, 1);
    key.vals[2] = rng.Uniform(-1, 1);
    key.rid = static_cast<uint64_t>(i);
    ASSERT_TRUE(tree->Insert(key).ok());
    if (key.vals[0] >= 3 && key.vals[0] <= 5) ++in_range;
  }
  ASSERT_TRUE(tree->CheckInvariants().ok());
  auto it = tree->Seek(IndexKey::LowerBound(
      {3.0, -std::numeric_limits<double>::infinity(),
       -std::numeric_limits<double>::infinity()}));
  ASSERT_TRUE(it.ok());
  int scanned = 0;
  while (it->Valid() && it->key().vals[0] <= 5.0) {
    ++scanned;
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_EQ(scanned, in_range);
}

TEST_F(StorageEdgeTest, PagerHeaderSurvivesWithoutExplicitSync) {
  // Only Sync writes the header: the destructor leaves the last synced
  // header as it was, so pages allocated after it stay uncounted (and
  // readable again only once a Sync counts them).
  auto allocate = [this](int n) {
    BufferPool pool(pager_.get(), 8);
    for (int i = 0; i < n; ++i) {
      auto handle = pool.AllocatePinned();
      ASSERT_TRUE(handle.ok());
    }
  };
  allocate(5);
  ASSERT_TRUE(pager_->Sync().ok());
  const uint64_t synced_pages = pager_->page_count();
  allocate(3);
  EXPECT_TRUE(pager_->has_unsynced_writes());
  pager_.reset();  // writes nothing
  auto reopened = Pager::Open(path_, false);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->page_count(), synced_pages);
  EXPECT_FALSE((*reopened)->has_unsynced_writes());
}

}  // namespace
}  // namespace segdiff
