#include "storage/table.h"

#include <utility>

#include "common/coding.h"
#include "query/executor.h"
#include "storage/snapshot.h"
#include "storage/wal.h"

namespace segdiff {

Table::Table(BufferPool* pool, std::string name, TableSchema schema,
             HeapFile heap)
    : pool_(pool),
      name_(std::move(name)),
      schema_(std::move(schema)),
      heap_(std::make_unique<HeapFile>(heap)),
      encode_buf_(schema_.RowBytes()) {}

Result<std::unique_ptr<Table>> Table::Create(BufferPool* pool,
                                             std::string name,
                                             TableSchema schema) {
  SEGDIFF_ASSIGN_OR_RETURN(HeapFile heap,
                           HeapFile::Create(pool, schema.RowBytes()));
  std::unique_ptr<Table> table(
      new Table(pool, std::move(name), std::move(schema), heap));
  if (ZoneMap::SupportsSchema(table->schema_)) {
    table->zone_map_ = std::make_unique<ZoneMap>(table->schema_.num_columns());
  }
  return table;
}

Result<std::unique_ptr<Table>> Table::Attach(BufferPool* pool,
                                             std::string name,
                                             TableSchema schema,
                                             const HeapFileMeta& heap_meta,
                                             ColumnStoreMeta columnar) {
  SEGDIFF_ASSIGN_OR_RETURN(
      HeapFile heap, HeapFile::Attach(pool, schema.RowBytes(), heap_meta));
  std::unique_ptr<Table> table(
      new Table(pool, std::move(name), std::move(schema), heap));
  if (!columnar.segments.empty()) {
    if (!ZoneMap::SupportsSchema(table->schema_)) {
      return Status::Corruption(
          "catalog records columnar segments for an unsupported schema");
    }
    table->columnar_ = std::make_unique<ColumnStore>(
        pool, table->schema_.num_columns(), std::move(columnar));
  }
  return table;
}

Result<IndexKey> Table::MakeKey(const TableIndex& index, const char* record,
                                RecordId rid) const {
  IndexKey key;
  for (size_t i = 0; i < index.key_columns.size(); ++i) {
    key.vals[i] = DecodeDoubleColumn(record, index.key_columns[i]);
  }
  key.rid = rid.Pack();
  return key;
}

Result<RecordId> Table::Insert(const Row& row) {
  SEGDIFF_RETURN_IF_ERROR(EncodeRow(schema_, row, encode_buf_.data()));
  return InsertLogged(encode_buf_.data());
}

Result<RecordId> Table::InsertDoubles(const std::vector<double>& values) {
  if (values.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  for (size_t i = 0; i < values.size(); ++i) {
    EncodeDouble(encode_buf_.data() + 8 * i, values[i]);
  }
  return InsertLogged(encode_buf_.data());
}

Result<RecordId> Table::InsertLogged(const char* record) {
  // WAL-before-data: the redo record (keyed by the row's ordinal, which
  // makes replay idempotent) is logged before any page is touched, so a
  // stolen page can never outrun the log.
  Wal* wal = pool_->wal();
  if (wal != nullptr && wal->logs_rows()) {
    SEGDIFF_RETURN_IF_ERROR(
        wal->AppendRowAppend(name_, row_count(), record, schema_.RowBytes())
            .status());
  }
  return InsertEncoded(record);
}

Result<RecordId> Table::InsertEncoded(const char* record) {
  SEGDIFF_ASSIGN_OR_RETURN(RecordId rid, heap_->Append(record));
  if (zone_map_ != nullptr) {
    zone_map_->OnAppend(rid, record);
  }
  for (TableIndex& index : indexes_) {
    SEGDIFF_ASSIGN_OR_RETURN(IndexKey key, MakeKey(index, record, rid));
    SEGDIFF_RETURN_IF_ERROR(index.tree->Insert(key));
  }
  return rid;
}

Result<Table::HeapAt> Table::ResolveHeap(
    const DatabaseSnapshot* snapshot) const {
  if (snapshot == nullptr) {
    return HeapAt{*heap_, nullptr};
  }
  const TableSnapshotView* view = snapshot->TableView(name_);
  if (view == nullptr) {
    return Status::InvalidArgument("table not covered by snapshot: " + name_);
  }
  SEGDIFF_ASSIGN_OR_RETURN(
      HeapFile frozen,
      HeapFile::Attach(pool_, schema_.RowBytes(), view->heap_meta));
  return HeapAt{frozen, snapshot->pool_snapshot()};
}

Status Table::AppendColumnarSegment(const char* records, size_t rows) {
  if (!ZoneMap::SupportsSchema(schema_)) {
    return Status::NotSupported(
        "columnar segments require an all-double schema of at most " +
        std::to_string(ZoneMap::kMaxColumns) + " columns");
  }
  if (heap_->meta().record_count != 0) {
    return Status::InvalidArgument(
        "columnar segments must precede row-format appends");
  }
  if (!indexes_.empty()) {
    return Status::InvalidArgument(
        "columnar segments must be appended before indexes exist");
  }
  if (columnar_ == nullptr) {
    columnar_ =
        std::make_unique<ColumnStore>(pool_, schema_.num_columns());
  }
  return columnar_->AppendSegment(records, rows);
}

Table::FormatBreakdown Table::GetFormatBreakdown() const {
  FormatBreakdown breakdown;
  breakdown.row_pages = heap_->meta().page_count;
  breakdown.row_rows = heap_->meta().record_count;
  breakdown.row_bytes = heap_->SizeBytes();
  if (columnar_ != nullptr) {
    breakdown.columnar_segments = columnar_->segment_count();
    breakdown.columnar_pages = columnar_->page_count();
    breakdown.columnar_rows = columnar_->row_count();
    breakdown.columnar_encoded_bytes = columnar_->encoded_bytes();
    breakdown.columnar_logical_bytes = columnar_->LogicalBytes();
  }
  return breakdown;
}

Result<std::vector<PageId>> Table::HeapPageIds(
    const DatabaseSnapshot* snapshot, const CorruptPageSkipper* skip) const {
  SEGDIFF_ASSIGN_OR_RETURN(HeapAt at, ResolveHeap(snapshot));
  return at.heap.CollectPageIds(at.snap, skip);
}

Status Table::ScanChain(const HeapFile::PageDataFn& fn,
                        const DatabaseSnapshot* snapshot,
                        const CorruptPageSkipper* skip) const {
  SEGDIFF_ASSIGN_OR_RETURN(HeapAt at, ResolveHeap(snapshot));
  return at.heap.ScanChain(fn, at.snap, skip);
}

Status Table::ScanPageList(const std::vector<PageId>& pages,
                           uint64_t first_page_index,
                           const HeapFile::PageDataFn& fn,
                           const DatabaseSnapshot* snapshot,
                           const CorruptPageSkipper* skip) const {
  SEGDIFF_ASSIGN_OR_RETURN(HeapAt at, ResolveHeap(snapshot));
  return at.heap.ScanPageList(pages, first_page_index, fn, at.snap, skip);
}

bool Table::AttachZoneMap(ZoneMap map) {
  if (map.num_columns() != schema_.num_columns() ||
      map.total_rows() != heap_->meta().record_count ||
      map.zone_count() > heap_->meta().page_count) {
    return false;  // stale or foreign map; pruning with it would be unsafe
  }
  zone_map_ = std::make_unique<ZoneMap>(std::move(map));
  return true;
}

Status Table::EnsureZoneMap() {
  if (zone_map_ != nullptr || !ZoneMap::SupportsSchema(schema_)) {
    return Status::OK();
  }
  auto map = std::make_unique<ZoneMap>(schema_.num_columns());
  SEGDIFF_RETURN_IF_ERROR(
      heap_->Scan([&](const char* record, RecordId rid) -> Status {
        map->OnAppend(rid, record);
        return Status::OK();
      }));
  zone_map_ = std::move(map);
  return Status::OK();
}

Status Table::ReadRecord(RecordId id, char* buf,
                         const DatabaseSnapshot* snapshot) const {
  return heap_->ReadRecord(
      id, buf, snapshot == nullptr ? nullptr : snapshot->pool_snapshot());
}

Result<BPlusTree*> Table::CreateIndex(
    const std::string& index_name,
    const std::vector<std::string>& columns) {
  if (columnar_ != nullptr) {
    return Status::InvalidArgument("table '" + name_ +
                                   "' has columnar segments and takes no "
                                   "index; scans prune its segments instead");
  }
  if (columns.empty() ||
      columns.size() > static_cast<size_t>(kMaxIndexArity)) {
    return Status::InvalidArgument("index needs 1..4 key columns");
  }
  for (const TableIndex& index : indexes_) {
    if (index.name == index_name) {
      return Status::AlreadyExists("index exists: " + index_name);
    }
  }
  TableIndex index;
  index.name = index_name;
  for (const std::string& column : columns) {
    SEGDIFF_ASSIGN_OR_RETURN(size_t idx, schema_.ColumnIndex(column));
    if (schema_.column(idx).type != ColumnType::kDouble) {
      return Status::InvalidArgument("index columns must be kDouble");
    }
    index.key_columns.push_back(idx);
  }
  SEGDIFF_ASSIGN_OR_RETURN(
      BPlusTree tree,
      BPlusTree::Create(pool_, static_cast<int>(columns.size())));
  index.tree = std::make_unique<BPlusTree>(std::move(tree));

  // Back-fill from the heap's existing rows.
  SEGDIFF_RETURN_IF_ERROR(
      heap_->Scan([&](const char* record, RecordId rid) -> Status {
        SEGDIFF_ASSIGN_OR_RETURN(IndexKey key, MakeKey(index, record, rid));
        return index.tree->Insert(key);
      }));
  indexes_.push_back(std::move(index));
  return indexes_.back().tree.get();
}

Status Table::AttachIndex(const std::string& index_name,
                          std::vector<size_t> key_columns,
                          PageId meta_page) {
  if (columnar_ != nullptr) {
    return Status::Corruption("catalog records index '" + index_name +
                              "' on table '" + name_ +
                              "', which has columnar segments");
  }
  SEGDIFF_ASSIGN_OR_RETURN(BPlusTree tree,
                           BPlusTree::Attach(pool_, meta_page));
  TableIndex index;
  index.name = index_name;
  index.key_columns = std::move(key_columns);
  index.tree = std::make_unique<BPlusTree>(std::move(tree));
  indexes_.push_back(std::move(index));
  return Status::OK();
}

Result<BPlusTree*> Table::GetIndex(const std::string& index_name) const {
  for (const TableIndex& index : indexes_) {
    if (index.name == index_name) {
      return index.tree.get();
    }
  }
  return Status::NotFound("no such index: " + index_name);
}

Result<uint64_t> Table::DeleteWhere(const Predicate& predicate) {
  // The rewrite's internal appends are not independently redoable (the
  // survivors land in a heap the catalog does not reference yet), so
  // they go through HeapFile::Append and BPlusTree::Insert, which never
  // log; the caller must checkpoint right after, which makes the new
  // heap durable atomically with the catalog that points at it. A crash
  // before that checkpoint recovers the pre-delete state.
  SEGDIFF_ASSIGN_OR_RETURN(HeapFile fresh,
                           HeapFile::Create(pool_, schema_.RowBytes()));
  uint64_t removed = 0;
  std::unique_ptr<ZoneMap> fresh_map;
  if (ZoneMap::SupportsSchema(schema_)) {
    fresh_map = std::make_unique<ZoneMap>(schema_.num_columns());
  }
  // Copy survivors into the fresh heap. The full table scan covers the
  // columnar segments too: a delete rewrites the whole table back to
  // row format (deletes are rare in the feature workload; the next
  // compaction re-converts), and the superseded segment pages become
  // file garbage exactly like superseded heap pages.
  SEGDIFF_RETURN_IF_ERROR(SeqScan(
      *this, Predicate::True(), [&](const char* record, RecordId) -> Status {
        if (predicate.Matches(record)) {
          ++removed;
          return Status::OK();
        }
        SEGDIFF_ASSIGN_OR_RETURN(RecordId rid, fresh.Append(record));
        if (fresh_map != nullptr) {
          fresh_map->OnAppend(rid, record);
        }
        return Status::OK();
      }));
  // Rebuild every index over the fresh heap.
  std::vector<TableIndex> rebuilt;
  rebuilt.reserve(indexes_.size());
  for (const TableIndex& old_index : indexes_) {
    TableIndex index;
    index.name = old_index.name;
    index.key_columns = old_index.key_columns;
    SEGDIFF_ASSIGN_OR_RETURN(
        BPlusTree tree,
        BPlusTree::Create(pool_,
                          static_cast<int>(index.key_columns.size())));
    index.tree = std::make_unique<BPlusTree>(std::move(tree));
    SEGDIFF_RETURN_IF_ERROR(
        fresh.Scan([&](const char* record, RecordId rid) -> Status {
          SEGDIFF_ASSIGN_OR_RETURN(IndexKey key, MakeKey(index, record, rid));
          return index.tree->Insert(key);
        }));
    rebuilt.push_back(std::move(index));
  }
  *heap_ = fresh;
  columnar_.reset();
  zone_map_ = std::move(fresh_map);
  indexes_ = std::move(rebuilt);
  return removed;
}

uint64_t Table::IndexSizeBytes() const {
  uint64_t total = 0;
  for (const TableIndex& index : indexes_) {
    total += index.tree->SizeBytes();
  }
  return total;
}

}  // namespace segdiff
