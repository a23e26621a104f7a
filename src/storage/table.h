// Table: a schema + heap file + any number of B+-tree secondary indexes.
//
// Table owns storage, not reads: searches, SQL, compaction, repair and
// DELETE read records through the scan executor (query/executor.h) over
// the columnar store and the heap walks below. Only the heap-only
// rebuilds (zone map, index back-fill) walk records here, through
// HeapFile::Scan. Every heap walk resolves its snapshot in one place
// (ResolveHeap).

#ifndef SEGDIFF_STORAGE_TABLE_H_
#define SEGDIFF_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "index/bplus_tree.h"
#include "query/predicate.h"
#include "storage/column_page.h"
#include "storage/heap_file.h"
#include "storage/record.h"
#include "storage/zone_map.h"

namespace segdiff {

class DatabaseSnapshot;

/// One secondary index: key = the listed double columns, in order,
/// with the record id appended as tiebreaker.
struct TableIndex {
  std::string name;
  std::vector<size_t> key_columns;
  std::unique_ptr<BPlusTree> tree;
};

/// Table with a dual-format data layout: an optional run of immutable
/// compressed columnar segments (produced by compaction-time conversion,
/// holding the oldest rows) followed by the append-only row heap. Insert
/// maintains every index and always lands in the heap; SeqScan streams
/// the columnar segments first, then the heap, so visit order is
/// insertion order regardless of format.
///
/// Invariant: a table with columnar segments carries no index. Indexes
/// are the paper's row-store access path; on a compacted table every
/// read is a (segment-pruned) scan. CreateIndex refuses such a table,
/// AppendColumnarSegment refuses a table that has an index, and
/// AttachIndex reports a catalog recording both as Corruption.
class Table {
 public:
  /// Creates a fresh table (allocates its heap file).
  static Result<std::unique_ptr<Table>> Create(BufferPool* pool,
                                               std::string name,
                                               TableSchema schema);

  /// Attaches to an existing table (plus its columnar portion, if the
  /// catalog recorded one).
  static Result<std::unique_ptr<Table>> Attach(BufferPool* pool,
                                               std::string name,
                                               TableSchema schema,
                                               const HeapFileMeta& heap_meta,
                                               ColumnStoreMeta columnar = {});

  const std::string& name() const { return name_; }
  const TableSchema& schema() const { return schema_; }

  /// Inserts a typed row; updates all indexes. When the buffer pool
  /// carries a WAL that logs rows, the encoded row is logged as a
  /// kRowAppend record (with its ordinal) before any page is touched —
  /// WAL-before-data. Insert and InsertDoubles are that record's only
  /// writers.
  Result<RecordId> Insert(const Row& row);

  /// Hot path for all-double tables: skips Value boxing. Logged like
  /// Insert.
  Result<RecordId> InsertDoubles(const std::vector<double>& values);

  /// Inserts an already-encoded record (schema().RowBytes() bytes)
  /// without logging it: the common tail of Insert/InsertDoubles, and
  /// the WAL replay path (reproducing the original append byte for
  /// byte).
  Result<RecordId> InsertEncoded(const char* record);

  /// Heap page ids in storage order (for partitioned parallel scans).
  /// A non-null `snapshot` (see storage/snapshot.h) reads the frozen
  /// point-in-time state instead of the live table — same for every
  /// walk/read below. A non-null `skip` (heap_file.h) routes around
  /// corrupt heap pages instead of failing.
  Result<std::vector<PageId>> HeapPageIds(
      const DatabaseSnapshot* snapshot = nullptr,
      const CorruptPageSkipper* skip = nullptr) const;

  /// Page-at-a-time heap walks — the chain walk and the page-list walk
  /// over a contiguous slice of HeapPageIds() starting at chain position
  /// `first_page_index` (see HeapFile); the scan executors evaluate each
  /// page's records in one shot.
  Status ScanChain(const HeapFile::PageDataFn& fn,
                   const DatabaseSnapshot* snapshot = nullptr,
                   const CorruptPageSkipper* skip = nullptr) const;
  Status ScanPageList(const std::vector<PageId>& pages,
                      uint64_t first_page_index,
                      const HeapFile::PageDataFn& fn,
                      const DatabaseSnapshot* snapshot = nullptr,
                      const CorruptPageSkipper* skip = nullptr) const;

  /// Copies the encoded heap record at `id` into `buf`
  /// (schema().RowBytes()) — the index scan's fetch. Only heap ids
  /// resolve: a table with an index has no columnar segments.
  Status ReadRecord(RecordId id, char* buf,
                    const DatabaseSnapshot* snapshot = nullptr) const;

  /// The table's columnar portion, or nullptr (pure row format).
  const ColumnStore* columnar() const { return columnar_.get(); }

  /// Appends `rows` row-major encoded records as one compressed
  /// columnar segment — the compaction-time conversion path. Only legal
  /// on an all-double schema of at most ZoneMap::kMaxColumns columns
  /// without an index, before any heap rows exist (so scan order stays
  /// insertion order).
  Status AppendColumnarSegment(const char* records, size_t rows);

  /// Per-format storage accounting for stats/EXPLAIN surfaces.
  struct FormatBreakdown {
    uint64_t row_pages = 0;
    uint64_t row_rows = 0;
    uint64_t row_bytes = 0;  ///< on-disk heap bytes (pages x page size)
    uint64_t columnar_segments = 0;
    uint64_t columnar_pages = 0;
    uint64_t columnar_rows = 0;
    uint64_t columnar_encoded_bytes = 0;  ///< compressed payload bytes
    uint64_t columnar_logical_bytes = 0;  ///< same rows in row format
  };
  FormatBreakdown GetFormatBreakdown() const;

  /// Adds an empty index over the named columns (all kDouble, at most
  /// kMaxIndexArity) and back-fills it from existing rows.
  /// InvalidArgument on a table with columnar segments.
  Result<BPlusTree*> CreateIndex(const std::string& index_name,
                                 const std::vector<std::string>& columns);

  /// Attaches an existing index (catalog restart path). Corruption on a
  /// table with columnar segments.
  Status AttachIndex(const std::string& index_name,
                     std::vector<size_t> key_columns, PageId meta_page);

  /// The named index, or NotFound.
  Result<BPlusTree*> GetIndex(const std::string& index_name) const;

  /// Deletes every row matching `predicate` by rewriting the heap file
  /// and rebuilding all indexes (a compaction-style delete: simple,
  /// crash-safe at checkpoint granularity, and appropriate for the
  /// rare-delete feature workload; superseded pages become file garbage
  /// until the store is rebuilt). Returns the number of rows removed.
  Result<uint64_t> DeleteWhere(const Predicate& predicate);

  /// The table's zone map, or nullptr (unsupported schema, or a map
  /// rejected at open that has not been rebuilt yet — call
  /// EnsureZoneMap).
  const ZoneMap* zone_map() const { return zone_map_.get(); }

  /// Adopts a zone map restored from the catalog. Rejects (drops) maps
  /// inconsistent with the heap — wrong arity or row count — since a
  /// stale map could prune live pages; the caller falls back to
  /// EnsureZoneMap. Returns whether the map was adopted.
  bool AttachZoneMap(ZoneMap map);

  /// Builds the zone map from a full heap scan when the schema supports
  /// one and it is missing (a rejected or unparsable blob). No-op when
  /// already present or unsupported.
  Status EnsureZoneMap();

  /// Discards the zone map (scans stop pruning until EnsureZoneMap).
  /// Tests use this to exercise the rebuild path; losing a map is
  /// always safe — it is derived data.
  void DetachZoneMap() { zone_map_.reset(); }

  const std::vector<TableIndex>& indexes() const { return indexes_; }
  uint64_t row_count() const {
    return heap_->meta().record_count +
           (columnar_ != nullptr ? columnar_->row_count() : 0);
  }
  /// Data bytes only (heap + columnar pages): the paper's "feature
  /// size". Compression shrinks this directly.
  uint64_t DataSizeBytes() const {
    return heap_->SizeBytes() +
           (columnar_ != nullptr ? columnar_->page_count() * kPageSize : 0);
  }
  /// Index bytes; data + index = the paper's "disk size".
  uint64_t IndexSizeBytes() const;
  const HeapFileMeta& heap_meta() const { return heap_->meta(); }

 private:
  Table(BufferPool* pool, std::string name, TableSchema schema,
        HeapFile heap);

  Result<IndexKey> MakeKey(const TableIndex& index, const char* record,
                           RecordId rid) const;

  /// Logs `record` as a kRowAppend (when the WAL logs rows), then
  /// InsertEncoded.
  Result<RecordId> InsertLogged(const char* record);

  /// The heap a read at `snapshot` walks, and the pool snapshot its
  /// pages are read through.
  struct HeapAt {
    HeapFile heap;
    const PoolSnapshot* snap;
  };

  /// The one snapshot resolution behind every heap walk: the live heap
  /// when `snapshot` is null, else a throwaway HeapFile over the
  /// table's frozen meta in it (InvalidArgument when the snapshot
  /// predates the table).
  Result<HeapAt> ResolveHeap(const DatabaseSnapshot* snapshot) const;

  BufferPool* pool_;
  std::string name_;
  TableSchema schema_;
  std::unique_ptr<HeapFile> heap_;
  std::unique_ptr<ColumnStore> columnar_;
  std::unique_ptr<ZoneMap> zone_map_;
  std::vector<TableIndex> indexes_;
  std::vector<char> encode_buf_;
};

}  // namespace segdiff

#endif  // SEGDIFF_STORAGE_TABLE_H_
