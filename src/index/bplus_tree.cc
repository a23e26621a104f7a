#include "index/bplus_tree.h"

#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/logging.h"

namespace segdiff {
namespace {

constexpr uint32_t kTreeMagic = 0x42505452;  // "BPTR"
constexpr size_t kNodeHeaderBytes = 16;

bool NodeIsLeaf(const char* page) { return page[0] != 0; }
void SetNodeIsLeaf(char* page, bool is_leaf) { page[0] = is_leaf ? 1 : 0; }
uint8_t NodeArity(const char* page) {
  return static_cast<uint8_t>(page[1]);
}
void SetNodeArity(char* page, uint8_t arity) {
  page[1] = static_cast<char>(arity);
}
uint16_t NodeCount(const char* page) { return DecodeFixed16(page + 2); }
void SetNodeCount(char* page, uint16_t count) {
  EncodeFixed16(page + 2, count);
}
uint64_t NodeLink(const char* page) { return DecodeFixed64(page + 8); }
void SetNodeLink(char* page, uint64_t link) { EncodeFixed64(page + 8, link); }

}  // namespace

int IndexKey::Compare(const IndexKey& a, const IndexKey& b, int arity) {
  for (int i = 0; i < arity; ++i) {
    if (a.vals[i] < b.vals[i]) {
      return -1;
    }
    if (a.vals[i] > b.vals[i]) {
      return 1;
    }
  }
  if (a.rid < b.rid) {
    return -1;
  }
  if (a.rid > b.rid) {
    return 1;
  }
  return 0;
}

IndexKey IndexKey::LowerBound(const std::vector<double>& components) {
  IndexKey key;
  for (size_t i = 0; i < components.size() && i < kMaxIndexArity; ++i) {
    key.vals[i] = components[i];
  }
  key.rid = 0;
  return key;
}

BPlusTree::BPlusTree(BufferPool* pool, PageId meta_page, int arity,
                     PageId root, uint64_t entry_count, uint64_t page_count,
                     int height)
    : pool_(pool),
      allocator_(pool->pager()),
      meta_page_(meta_page),
      arity_(arity),
      root_(root),
      entry_count_(entry_count),
      page_count_(page_count),
      height_(height) {}

size_t BPlusTree::LeafCapacity() const {
  return (kPageCapacity - kNodeHeaderBytes) / LeafEntryBytes();
}

size_t BPlusTree::InternalCapacity() const {
  return (kPageCapacity - kNodeHeaderBytes) / InternalEntryBytes();
}

void BPlusTree::EncodeKey(const IndexKey& key, char* dst) const {
  for (int i = 0; i < arity_; ++i) {
    EncodeDouble(dst + 8 * i, key.vals[i]);
  }
  EncodeFixed64(dst + 8 * arity_, key.rid);
}

IndexKey BPlusTree::DecodeKey(const char* src) const {
  IndexKey key;
  for (int i = 0; i < arity_; ++i) {
    key.vals[i] = DecodeDouble(src + 8 * i);
  }
  key.rid = DecodeFixed64(src + 8 * arity_);
  return key;
}

Result<BPlusTree> BPlusTree::Create(BufferPool* pool, int arity) {
  if (arity < 1 || arity > kMaxIndexArity) {
    return Status::InvalidArgument("index arity must be in [1, 4]");
  }
  BPlusTree bootstrap(pool, kInvalidPageId, arity, kInvalidPageId, 0, 0, 1);
  SEGDIFF_ASSIGN_OR_RETURN(PageHandle meta, bootstrap.NewNodePage());
  SEGDIFF_ASSIGN_OR_RETURN(PageHandle root, bootstrap.NewNodePage());
  SetNodeIsLeaf(root.data(), true);
  SetNodeArity(root.data(), static_cast<uint8_t>(arity));
  SetNodeCount(root.data(), 0);
  SetNodeLink(root.data(), kInvalidPageId);
  root.MarkDirty();

  bootstrap.meta_page_ = meta.page_id();
  bootstrap.root_ = root.page_id();
  bootstrap.page_count_ = 2;
  EncodeFixed32(meta.data(), kTreeMagic);
  meta.MarkDirty();
  meta.Release();
  SEGDIFF_RETURN_IF_ERROR(bootstrap.PersistMeta());
  return bootstrap;
}

Result<PageHandle> BPlusTree::NewNodePage() {
  SEGDIFF_ASSIGN_OR_RETURN(PageId id, allocator_.Allocate());
  return pool_->PinFresh(id);
}

Result<BPlusTree> BPlusTree::Attach(BufferPool* pool, PageId meta_page) {
  SEGDIFF_ASSIGN_OR_RETURN(PageHandle meta, pool->Fetch(meta_page));
  const char* d = meta.data();
  if (DecodeFixed32(d) != kTreeMagic) {
    return Status::Corruption("bad B+tree meta magic");
  }
  const int arity = static_cast<int>(DecodeFixed32(d + 4));
  if (arity < 1 || arity > kMaxIndexArity) {
    return Status::Corruption("bad B+tree arity");
  }
  const PageId root = DecodeFixed64(d + 8);
  const uint64_t entry_count = DecodeFixed64(d + 16);
  const uint64_t page_count = DecodeFixed64(d + 24);
  const int height = static_cast<int>(DecodeFixed32(d + 32));
  return BPlusTree(pool, meta_page, arity, root, entry_count, page_count,
                   height);
}

Status BPlusTree::PersistMeta() {
  SEGDIFF_ASSIGN_OR_RETURN(PageHandle meta, pool_->FetchMut(meta_page_));
  char* d = meta.data();
  EncodeFixed32(d, kTreeMagic);
  EncodeFixed32(d + 4, static_cast<uint32_t>(arity_));
  EncodeFixed64(d + 8, root_);
  EncodeFixed64(d + 16, entry_count_);
  EncodeFixed64(d + 24, page_count_);
  EncodeFixed32(d + 32, static_cast<uint32_t>(height_));
  meta.MarkDirty();
  return Status::OK();
}

Result<BPlusTree::SplitResult> BPlusTree::InsertInto(PageId node_id,
                                                     const IndexKey& key) {
  // FetchMut even on the internal-descent path (which only reads): the
  // copy-on-write redirect for an unchanged page is harmless, and the
  // leaf/split paths below do mutate.
  SEGDIFF_ASSIGN_OR_RETURN(PageHandle node, pool_->FetchMut(node_id));
  char* d = node.data();
  const uint16_t count = NodeCount(d);
  const size_t key_bytes = KeyBytes();

  if (NodeIsLeaf(d)) {
    // Binary search for insertion slot.
    size_t lo = 0;
    size_t hi = count;
    const char* base = d + kNodeHeaderBytes;
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      const IndexKey probe = DecodeKey(base + mid * key_bytes);
      const int cmp = IndexKey::Compare(probe, key, arity_);
      if (cmp == 0) {
        return Status::AlreadyExists("duplicate index key");
      }
      if (cmp < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    const size_t slot = lo;

    if (count < LeafCapacity()) {
      char* at = d + kNodeHeaderBytes + slot * key_bytes;
      std::memmove(at + key_bytes, at, (count - slot) * key_bytes);
      EncodeKey(key, at);
      SetNodeCount(d, static_cast<uint16_t>(count + 1));
      node.MarkDirty();
      return SplitResult{};
    }

    // Split the leaf: upper half moves to a fresh right sibling.
    SEGDIFF_ASSIGN_OR_RETURN(PageHandle right, NewNodePage());
    ++page_count_;
    char* rd = right.data();
    SetNodeIsLeaf(rd, true);
    SetNodeArity(rd, static_cast<uint8_t>(arity_));
    const size_t keep = (count + 1) / 2;
    const size_t moved = count - keep;
    std::memcpy(rd + kNodeHeaderBytes, d + kNodeHeaderBytes + keep * key_bytes,
                moved * key_bytes);
    SetNodeCount(rd, static_cast<uint16_t>(moved));
    SetNodeLink(rd, NodeLink(d));
    SetNodeCount(d, static_cast<uint16_t>(keep));
    SetNodeLink(d, right.page_id());
    node.MarkDirty();
    right.MarkDirty();

    const IndexKey separator = DecodeKey(rd + kNodeHeaderBytes);
    const PageId right_id = right.page_id();
    // Insert the pending key into the appropriate half (both have room).
    const PageId target =
        IndexKey::Compare(key, separator, arity_) < 0 ? node_id : right_id;
    right.Release();
    node.Release();
    SEGDIFF_ASSIGN_OR_RETURN(SplitResult sub, InsertInto(target, key));
    SEGDIFF_CHECK(!sub.split);
    SplitResult result;
    result.split = true;
    result.separator = separator;
    result.right_page = right_id;
    return result;
  }

  // Internal node: find the child to descend into (last separator <= key).
  const char* base = d + kNodeHeaderBytes;
  const size_t entry_bytes = InternalEntryBytes();
  size_t lo = 0;
  size_t hi = count;
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    const IndexKey probe = DecodeKey(base + mid * entry_bytes);
    if (IndexKey::Compare(probe, key, arity_) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const PageId child =
      lo == 0 ? NodeLink(d)
              : DecodeFixed64(base + (lo - 1) * entry_bytes + key_bytes);
  node.Release();

  SEGDIFF_ASSIGN_OR_RETURN(SplitResult child_split, InsertInto(child, key));
  if (!child_split.split) {
    return SplitResult{};
  }

  // Insert (separator, right_page) into this node at position lo.
  SEGDIFF_ASSIGN_OR_RETURN(PageHandle again, pool_->FetchMut(node_id));
  char* ad = again.data();
  const uint16_t acount = NodeCount(ad);
  char* abase = ad + kNodeHeaderBytes;
  // Recompute the slot (structure below may have changed only in children).
  size_t slot = 0;
  size_t shi = acount;
  while (slot < shi) {
    const size_t mid = (slot + shi) / 2;
    const IndexKey probe = DecodeKey(abase + mid * entry_bytes);
    if (IndexKey::Compare(probe, child_split.separator, arity_) <= 0) {
      slot = mid + 1;
    } else {
      shi = mid;
    }
  }

  if (acount < InternalCapacity()) {
    char* at = abase + slot * entry_bytes;
    std::memmove(at + entry_bytes, at, (acount - slot) * entry_bytes);
    EncodeKey(child_split.separator, at);
    EncodeFixed64(at + key_bytes, child_split.right_page);
    SetNodeCount(ad, static_cast<uint16_t>(acount + 1));
    again.MarkDirty();
    return SplitResult{};
  }

  // Split the internal node. Build the full entry list in memory.
  struct Entry {
    IndexKey key;
    PageId child;
  };
  std::vector<Entry> entries;
  entries.reserve(acount + 1);
  for (size_t i = 0; i < acount; ++i) {
    Entry e;
    e.key = DecodeKey(abase + i * entry_bytes);
    e.child = DecodeFixed64(abase + i * entry_bytes + key_bytes);
    entries.push_back(e);
  }
  entries.insert(entries.begin() + static_cast<std::ptrdiff_t>(slot),
                 Entry{child_split.separator, child_split.right_page});

  const size_t total = entries.size();
  const size_t mid_idx = total / 2;  // middle separator moves up
  SEGDIFF_ASSIGN_OR_RETURN(PageHandle right, NewNodePage());
  ++page_count_;
  char* rd = right.data();
  SetNodeIsLeaf(rd, false);
  SetNodeArity(rd, static_cast<uint8_t>(arity_));
  SetNodeLink(rd, entries[mid_idx].child);  // leftmost child of right node
  const size_t right_n = total - mid_idx - 1;
  for (size_t i = 0; i < right_n; ++i) {
    char* at = rd + kNodeHeaderBytes + i * entry_bytes;
    EncodeKey(entries[mid_idx + 1 + i].key, at);
    EncodeFixed64(at + key_bytes, entries[mid_idx + 1 + i].child);
  }
  SetNodeCount(rd, static_cast<uint16_t>(right_n));
  right.MarkDirty();

  for (size_t i = 0; i < mid_idx; ++i) {
    char* at = abase + i * entry_bytes;
    EncodeKey(entries[i].key, at);
    EncodeFixed64(at + key_bytes, entries[i].child);
  }
  SetNodeCount(ad, static_cast<uint16_t>(mid_idx));
  again.MarkDirty();

  SplitResult result;
  result.split = true;
  result.separator = entries[mid_idx].key;
  result.right_page = right.page_id();
  return result;
}

Status BPlusTree::Insert(const IndexKey& key) {
  for (int i = 0; i < arity_; ++i) {
    if (key.vals[i] != key.vals[i]) {  // NaN check without <cmath>
      return Status::InvalidArgument("NaN index key component");
    }
  }
  SEGDIFF_ASSIGN_OR_RETURN(SplitResult split, InsertInto(root_, key));
  if (split.split) {
    SEGDIFF_ASSIGN_OR_RETURN(PageHandle new_root, NewNodePage());
    ++page_count_;
    char* d = new_root.data();
    SetNodeIsLeaf(d, false);
    SetNodeArity(d, static_cast<uint8_t>(arity_));
    SetNodeLink(d, root_);
    char* at = d + kNodeHeaderBytes;
    EncodeKey(split.separator, at);
    EncodeFixed64(at + KeyBytes(), split.right_page);
    SetNodeCount(d, 1);
    new_root.MarkDirty();
    root_ = new_root.page_id();
    ++height_;
  }
  ++entry_count_;
  return PersistMeta();
}

Status BPlusTree::Delete(const IndexKey& key) {
  // Descend to the leaf that would hold the key.
  PageId node_id = root_;
  const size_t key_bytes = KeyBytes();
  const size_t entry_bytes = InternalEntryBytes();
  for (;;) {
    SEGDIFF_ASSIGN_OR_RETURN(PageHandle node, pool_->Fetch(node_id));
    char* d = node.data();
    const uint16_t count = NodeCount(d);
    char* base = d + kNodeHeaderBytes;
    if (NodeIsLeaf(d)) {
      // Re-fetch the leaf through the mutating path so a live snapshot
      // gets its pre-image before the removal below; the read handle
      // must be released first (its buffer pointer would go stale once
      // the copy-on-write redirect swaps the frame's buffer).
      node.Release();
      SEGDIFF_ASSIGN_OR_RETURN(PageHandle leaf, pool_->FetchMut(node_id));
      char* ld = leaf.data();
      const uint16_t lcount = NodeCount(ld);
      char* lbase = ld + kNodeHeaderBytes;
      size_t lo = 0;
      size_t hi = lcount;
      while (lo < hi) {
        const size_t mid = (lo + hi) / 2;
        const IndexKey probe = DecodeKey(lbase + mid * key_bytes);
        const int cmp = IndexKey::Compare(probe, key, arity_);
        if (cmp == 0) {
          char* at = lbase + mid * key_bytes;
          std::memmove(at, at + key_bytes, (lcount - mid - 1) * key_bytes);
          SetNodeCount(ld, static_cast<uint16_t>(lcount - 1));
          leaf.MarkDirty();
          leaf.Release();
          --entry_count_;
          return PersistMeta();
        }
        if (cmp < 0) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return Status::NotFound("index key not present");
    }
    size_t lo = 0;
    size_t hi = count;
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      const IndexKey probe = DecodeKey(base + mid * entry_bytes);
      if (IndexKey::Compare(probe, key, arity_) <= 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    node_id = lo == 0
                  ? NodeLink(d)
                  : DecodeFixed64(base + (lo - 1) * entry_bytes + key_bytes);
  }
}

BPlusTree::Iterator::Iterator(const BPlusTree* tree, PageId leaf,
                              uint16_t slot, const PoolSnapshot* snap)
    : tree_(tree), leaf_(leaf), slot_(slot), snap_(snap) {}

Status BPlusTree::Iterator::LoadCurrent() {
  valid_ = false;
  while (leaf_ != kInvalidPageId) {
    SEGDIFF_ASSIGN_OR_RETURN(PageHandle page,
                             tree_->pool_->Fetch(leaf_, snap_));
    const uint16_t count = NodeCount(page.data());
    if (slot_ < count) {
      key_ = tree_->DecodeKey(page.data() + kNodeHeaderBytes +
                              static_cast<size_t>(slot_) *
                                  tree_->LeafEntryBytes());
      valid_ = true;
      return Status::OK();
    }
    leaf_ = NodeLink(page.data());
    slot_ = 0;
  }
  return Status::OK();
}

Status BPlusTree::Iterator::Next() {
  if (!valid_) {
    return Status::InvalidArgument("Next on invalid iterator");
  }
  ++slot_;
  return LoadCurrent();
}

Result<BPlusTree::Iterator> BPlusTree::Seek(const IndexKey& lower,
                                            const PoolSnapshot* snap) const {
  PageId node_id;
  if (snap != nullptr) {
    // The in-memory root may already be ahead of the snapshot (inserts
    // grow the tree upward); the snapshot's version of the metadata
    // page records the root as of the snapshot epoch. root_ itself is
    // never read here: a concurrent Insert may be rewriting it.
    SEGDIFF_ASSIGN_OR_RETURN(PageHandle meta, pool_->Fetch(meta_page_, snap));
    if (DecodeFixed32(meta.data()) != kTreeMagic) {
      return Status::Corruption("bad B+tree meta magic in snapshot");
    }
    node_id = DecodeFixed64(meta.data() + 8);
  } else {
    node_id = root_;
  }
  const size_t key_bytes = KeyBytes();
  const size_t entry_bytes = InternalEntryBytes();
  for (;;) {
    SEGDIFF_ASSIGN_OR_RETURN(PageHandle node, pool_->Fetch(node_id, snap));
    const char* d = node.data();
    const uint16_t count = NodeCount(d);
    const char* base = d + kNodeHeaderBytes;
    if (NodeIsLeaf(d)) {
      size_t lo = 0;
      size_t hi = count;
      while (lo < hi) {
        const size_t mid = (lo + hi) / 2;
        const IndexKey probe = DecodeKey(base + mid * key_bytes);
        if (IndexKey::Compare(probe, lower, arity_) < 0) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      Iterator it(this, node_id, static_cast<uint16_t>(lo), snap);
      node.Release();
      SEGDIFF_RETURN_IF_ERROR(it.LoadCurrent());
      return it;
    }
    size_t lo = 0;
    size_t hi = count;
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      const IndexKey probe = DecodeKey(base + mid * entry_bytes);
      if (IndexKey::Compare(probe, lower, arity_) <= 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    node_id = lo == 0
                  ? NodeLink(d)
                  : DecodeFixed64(base + (lo - 1) * entry_bytes + key_bytes);
  }
}

Result<BPlusTree::Iterator> BPlusTree::SeekFirst() const {
  IndexKey lowest;
  for (int i = 0; i < arity_; ++i) {
    lowest.vals[i] = -std::numeric_limits<double>::infinity();
  }
  lowest.rid = 0;
  return Seek(lowest);
}

Status BPlusTree::CheckNode(PageId node_id, const IndexKey* lo,
                            const IndexKey* hi, int depth, int* leaf_depth,
                            uint64_t* entries,
                            std::vector<PageId>* leaves_in_order) const {
  SEGDIFF_ASSIGN_OR_RETURN(PageHandle node, pool_->Fetch(node_id));
  const char* d = node.data();
  const uint16_t count = NodeCount(d);
  const char* base = d + kNodeHeaderBytes;
  if (NodeArity(d) != arity_) {
    return Status::Corruption("node arity mismatch");
  }
  if (NodeIsLeaf(d)) {
    if (*leaf_depth == -1) {
      *leaf_depth = depth;
    } else if (*leaf_depth != depth) {
      return Status::Corruption("leaves at differing depths");
    }
    IndexKey prev;
    for (uint16_t i = 0; i < count; ++i) {
      const IndexKey key = DecodeKey(base + i * LeafEntryBytes());
      if (i > 0 && IndexKey::Compare(prev, key, arity_) >= 0) {
        return Status::Corruption("leaf keys out of order");
      }
      if (lo != nullptr && IndexKey::Compare(key, *lo, arity_) < 0) {
        return Status::Corruption("leaf key below fence");
      }
      if (hi != nullptr && IndexKey::Compare(key, *hi, arity_) >= 0) {
        return Status::Corruption("leaf key above fence");
      }
      prev = key;
    }
    *entries += count;
    leaves_in_order->push_back(node_id);
    return Status::OK();
  }
  const size_t entry_bytes = InternalEntryBytes();
  IndexKey prev;
  IndexKey first_sep = DecodeKey(base);
  // Leftmost child: fence (lo, first separator).
  for (uint16_t i = 0; i < count; ++i) {
    const IndexKey key = DecodeKey(base + i * entry_bytes);
    if (i > 0 && IndexKey::Compare(prev, key, arity_) >= 0) {
      return Status::Corruption("internal keys out of order");
    }
    prev = key;
  }
  // Recurse: leftmost child then each entry's right child.
  {
    const IndexKey* child_hi = count > 0 ? &first_sep : hi;
    SEGDIFF_RETURN_IF_ERROR(CheckNode(NodeLink(d), lo, child_hi, depth + 1,
                                      leaf_depth, entries, leaves_in_order));
  }
  for (uint16_t i = 0; i < count; ++i) {
    const IndexKey sep = DecodeKey(base + i * entry_bytes);
    const PageId child = DecodeFixed64(base + i * entry_bytes + KeyBytes());
    IndexKey next_sep;
    const IndexKey* child_hi = hi;
    if (i + 1 < count) {
      next_sep = DecodeKey(base + (i + 1) * entry_bytes);
      child_hi = &next_sep;
    }
    SEGDIFF_RETURN_IF_ERROR(CheckNode(child, &sep, child_hi, depth + 1,
                                      leaf_depth, entries, leaves_in_order));
  }
  return Status::OK();
}

Status BPlusTree::CheckInvariants() const {
  int leaf_depth = -1;
  uint64_t entries = 0;
  std::vector<PageId> leaves;
  SEGDIFF_RETURN_IF_ERROR(CheckNode(root_, nullptr, nullptr, 0, &leaf_depth,
                                    &entries, &leaves));
  if (entries != entry_count_) {
    return Status::Corruption("entry count mismatch");
  }
  // Leaf chain must visit the leaves in left-to-right order.
  for (size_t i = 0; i + 1 < leaves.size(); ++i) {
    SEGDIFF_ASSIGN_OR_RETURN(PageHandle leaf, pool_->Fetch(leaves[i]));
    if (NodeLink(leaf.data()) != leaves[i + 1]) {
      return Status::Corruption("broken leaf chain");
    }
  }
  if (!leaves.empty()) {
    SEGDIFF_ASSIGN_OR_RETURN(PageHandle last, pool_->Fetch(leaves.back()));
    if (NodeLink(last.data()) != kInvalidPageId) {
      return Status::Corruption("leaf chain does not terminate");
    }
  }
  return Status::OK();
}

}  // namespace segdiff
