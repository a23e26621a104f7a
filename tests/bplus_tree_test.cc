// B+-tree tests: ordering against a std::map reference model, splits,
// range scans, persistence, and structural invariants.

#include <cstdio>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "test_paths.h"

#include "common/random.h"
#include "index/bplus_tree.h"
#include "storage/pager.h"

namespace segdiff {
namespace {

/// Comparable tuple form of a key for the reference model.
using RefKey = std::tuple<double, double, double, double, uint64_t>;

RefKey ToRef(const IndexKey& key) {
  return {key.vals[0], key.vals[1], key.vals[2], key.vals[3], key.rid};
}

class BPlusTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("segdiff_bptree");
    std::remove(path_.c_str());
    auto pager = Pager::Open(path_, true);
    ASSERT_TRUE(pager.ok());
    pager_ = std::move(pager).value();
    pool_ = std::make_unique<BufferPool>(pager_.get(), 256);
  }
  void TearDown() override {
    pool_.reset();
    pager_.reset();
    std::remove(path_.c_str());
  }

  std::string path_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
};

TEST_F(BPlusTreeTest, CreateRejectsBadArity) {
  EXPECT_TRUE(BPlusTree::Create(pool_.get(), 0).status().IsInvalidArgument());
  EXPECT_TRUE(BPlusTree::Create(pool_.get(), 5).status().IsInvalidArgument());
}

TEST_F(BPlusTreeTest, EmptyTreeScan) {
  auto tree = BPlusTree::Create(pool_.get(), 2);
  ASSERT_TRUE(tree.ok());
  auto it = tree->SeekFirst();
  ASSERT_TRUE(it.ok());
  EXPECT_FALSE(it->Valid());
  EXPECT_TRUE(tree->CheckInvariants().ok());
}

TEST_F(BPlusTreeTest, InsertAndScanSorted) {
  auto tree = BPlusTree::Create(pool_.get(), 1);
  ASSERT_TRUE(tree.ok());
  Rng rng(3);
  std::map<RefKey, bool> reference;
  for (int i = 0; i < 5000; ++i) {
    IndexKey key;
    key.vals[0] = rng.Uniform(-100, 100);
    key.rid = static_cast<uint64_t>(i);
    ASSERT_TRUE(tree->Insert(key).ok());
    reference[ToRef(key)] = true;
  }
  EXPECT_EQ(tree->entry_count(), 5000u);
  EXPECT_GT(tree->height(), 1);
  ASSERT_TRUE(tree->CheckInvariants().ok());

  auto it = tree->SeekFirst();
  ASSERT_TRUE(it.ok());
  auto ref_it = reference.begin();
  size_t count = 0;
  while (it->Valid()) {
    ASSERT_NE(ref_it, reference.end());
    EXPECT_EQ(it->key().vals[0], std::get<0>(ref_it->first));
    EXPECT_EQ(it->key().rid, std::get<4>(ref_it->first));
    ++ref_it;
    ++count;
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_EQ(count, 5000u);
}

TEST_F(BPlusTreeTest, DuplicateKeyRejected) {
  auto tree = BPlusTree::Create(pool_.get(), 2);
  IndexKey key;
  key.vals[0] = 1.0;
  key.vals[1] = 2.0;
  key.rid = 7;
  ASSERT_TRUE(tree->Insert(key).ok());
  EXPECT_TRUE(tree->Insert(key).IsAlreadyExists());
  // Same column values, different rid: allowed (rid is the tiebreaker).
  key.rid = 8;
  EXPECT_TRUE(tree->Insert(key).ok());
  EXPECT_EQ(tree->entry_count(), 2u);
}

TEST_F(BPlusTreeTest, NaNRejected) {
  auto tree = BPlusTree::Create(pool_.get(), 1);
  IndexKey key;
  key.vals[0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(tree->Insert(key).IsInvalidArgument());
}

TEST_F(BPlusTreeTest, SeekFindsLowerBound) {
  auto tree = BPlusTree::Create(pool_.get(), 1);
  for (int i = 0; i < 100; ++i) {
    IndexKey key;
    key.vals[0] = i * 2.0;  // even numbers 0..198
    key.rid = static_cast<uint64_t>(i);
    ASSERT_TRUE(tree->Insert(key).ok());
  }
  auto it = tree->Seek(IndexKey::LowerBound({51.0}));
  ASSERT_TRUE(it.ok());
  ASSERT_TRUE(it->Valid());
  EXPECT_DOUBLE_EQ(it->key().vals[0], 52.0);
  // Exactly on a key: lands on it (rid 0 lower bound).
  it = tree->Seek(IndexKey::LowerBound({52.0}));
  ASSERT_TRUE(it->Valid());
  EXPECT_DOUBLE_EQ(it->key().vals[0], 52.0);
  // Past the end.
  it = tree->Seek(IndexKey::LowerBound({1000.0}));
  ASSERT_TRUE(it.ok());
  EXPECT_FALSE(it->Valid());
}

TEST_F(BPlusTreeTest, CompositeKeyOrdering) {
  auto tree = BPlusTree::Create(pool_.get(), 2);
  Rng rng(9);
  std::map<RefKey, bool> reference;
  for (int i = 0; i < 3000; ++i) {
    IndexKey key;
    key.vals[0] = rng.UniformInt(0, 20);  // many duplicates in column 0
    key.vals[1] = rng.Uniform(-10, 10);
    key.rid = static_cast<uint64_t>(i);
    ASSERT_TRUE(tree->Insert(key).ok());
    reference[ToRef(key)] = true;
  }
  ASSERT_TRUE(tree->CheckInvariants().ok());
  // Range scan [5, 9] on the leading column matches the reference.
  auto it = tree->Seek(IndexKey::LowerBound({5.0, -1e18}));
  ASSERT_TRUE(it.ok());
  size_t scanned = 0;
  IndexKey prev;
  bool first = true;
  while (it->Valid() && it->key().vals[0] <= 9.0) {
    if (!first) {
      EXPECT_LT(IndexKey::Compare(prev, it->key(), 2), 0);
    }
    prev = it->key();
    first = false;
    ++scanned;
    ASSERT_TRUE(it->Next().ok());
  }
  size_t expected = 0;
  for (const auto& [key, unused] : reference) {
    if (std::get<0>(key) >= 5.0 && std::get<0>(key) <= 9.0) ++expected;
  }
  EXPECT_EQ(scanned, expected);
}

TEST_F(BPlusTreeTest, PersistsAcrossAttach) {
  PageId meta_page;
  {
    auto tree = BPlusTree::Create(pool_.get(), 2);
    ASSERT_TRUE(tree.ok());
    meta_page = tree->meta_page();
    for (int i = 0; i < 2000; ++i) {
      IndexKey key;
      key.vals[0] = static_cast<double>(i % 50);
      key.vals[1] = static_cast<double>(i);
      key.rid = static_cast<uint64_t>(i);
      ASSERT_TRUE(tree->Insert(key).ok());
    }
    ASSERT_TRUE(pool_->FlushAll().ok());
    // Only Sync persists the header's page count.
    ASSERT_TRUE(pager_->Sync().ok());
  }
  // Reopen file cold.
  pool_.reset();
  pager_.reset();
  auto pager = Pager::Open(path_, false);
  ASSERT_TRUE(pager.ok());
  pager_ = std::move(pager).value();
  pool_ = std::make_unique<BufferPool>(pager_.get(), 64);
  auto tree = BPlusTree::Attach(pool_.get(), meta_page);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree->entry_count(), 2000u);
  EXPECT_TRUE(tree->CheckInvariants().ok());
  auto it = tree->SeekFirst();
  size_t count = 0;
  while (it->Valid()) {
    ++count;
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_EQ(count, 2000u);
}

TEST_F(BPlusTreeTest, AttachRejectsGarbageMetaPage) {
  auto garbage = pool_->AllocatePinned();
  ASSERT_TRUE(garbage.ok());
  garbage->data()[0] = 99;
  garbage->MarkDirty();
  const PageId page = garbage->page_id();
  garbage->Release();
  EXPECT_TRUE(BPlusTree::Attach(pool_.get(), page).status().IsCorruption());
}

TEST_F(BPlusTreeTest, Arity4DeepTree) {
  auto tree = BPlusTree::Create(pool_.get(), 4);
  ASSERT_TRUE(tree.ok());
  Rng rng(17);
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    IndexKey key;
    for (int c = 0; c < 4; ++c) {
      key.vals[c] = rng.Uniform(-5, 5);
    }
    key.rid = static_cast<uint64_t>(i);
    ASSERT_TRUE(tree->Insert(key).ok());
  }
  EXPECT_EQ(tree->entry_count(), static_cast<uint64_t>(n));
  EXPECT_GE(tree->height(), 2);
  ASSERT_TRUE(tree->CheckInvariants().ok());
  // Full scan is sorted and complete.
  auto it = tree->SeekFirst();
  size_t count = 0;
  IndexKey prev;
  while (it->Valid()) {
    if (count > 0) {
      EXPECT_LT(IndexKey::Compare(prev, it->key(), 4), 0);
    }
    prev = it->key();
    ++count;
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_EQ(count, static_cast<size_t>(n));
  EXPECT_GT(tree->SizeBytes(), 0u);
}

TEST_F(BPlusTreeTest, DeleteAgainstReferenceModel) {
  auto tree = BPlusTree::Create(pool_.get(), 1);
  ASSERT_TRUE(tree.ok());
  Rng rng(23);
  std::map<RefKey, bool> reference;
  std::vector<IndexKey> inserted;
  for (int i = 0; i < 3000; ++i) {
    IndexKey key;
    key.vals[0] = rng.Uniform(-50, 50);
    key.rid = static_cast<uint64_t>(i);
    ASSERT_TRUE(tree->Insert(key).ok());
    reference[ToRef(key)] = true;
    inserted.push_back(key);
  }
  // Delete a random half.
  for (size_t i = 0; i < inserted.size(); i += 2) {
    ASSERT_TRUE(tree->Delete(inserted[i]).ok());
    reference.erase(ToRef(inserted[i]));
  }
  EXPECT_EQ(tree->entry_count(), reference.size());
  ASSERT_TRUE(tree->CheckInvariants().ok());
  // Deleting again reports NotFound.
  EXPECT_TRUE(tree->Delete(inserted[0]).IsNotFound());
  // Remaining keys scan in order and match the reference exactly.
  auto it = tree->SeekFirst();
  ASSERT_TRUE(it.ok());
  auto ref_it = reference.begin();
  while (it->Valid()) {
    ASSERT_NE(ref_it, reference.end());
    EXPECT_EQ(it->key().vals[0], std::get<0>(ref_it->first));
    EXPECT_EQ(it->key().rid, std::get<4>(ref_it->first));
    ++ref_it;
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_EQ(ref_it, reference.end());
  // Inserting into a drained region still works.
  ASSERT_TRUE(tree->Insert(inserted[0]).ok());
  ASSERT_TRUE(tree->CheckInvariants().ok());
}

TEST_F(BPlusTreeTest, DeleteEveryKeyLeavesEmptyScannableTree) {
  auto tree = BPlusTree::Create(pool_.get(), 1);
  std::vector<IndexKey> keys;
  for (int i = 0; i < 1000; ++i) {
    IndexKey key;
    key.vals[0] = static_cast<double>(i);
    key.rid = static_cast<uint64_t>(i);
    ASSERT_TRUE(tree->Insert(key).ok());
    keys.push_back(key);
  }
  for (const IndexKey& key : keys) {
    ASSERT_TRUE(tree->Delete(key).ok());
  }
  EXPECT_EQ(tree->entry_count(), 0u);
  auto it = tree->SeekFirst();
  ASSERT_TRUE(it.ok());
  EXPECT_FALSE(it->Valid());
  ASSERT_TRUE(tree->CheckInvariants().ok());
}

TEST_F(BPlusTreeTest, SequentialInsertOrderStress) {
  // Ascending and descending inserts exercise both split edges.
  for (bool ascending : {true, false}) {
    auto tree = BPlusTree::Create(pool_.get(), 1);
    ASSERT_TRUE(tree.ok());
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
      IndexKey key;
      key.vals[0] = static_cast<double>(ascending ? i : n - i);
      key.rid = static_cast<uint64_t>(i);
      ASSERT_TRUE(tree->Insert(key).ok());
    }
    ASSERT_TRUE(tree->CheckInvariants().ok());
    auto it = tree->SeekFirst();
    size_t count = 0;
    while (it->Valid()) {
      ++count;
      ASSERT_TRUE(it->Next().ok());
    }
    EXPECT_EQ(count, static_cast<size_t>(n));
  }
}

}  // namespace
}  // namespace segdiff
