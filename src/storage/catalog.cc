#include "storage/catalog.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/bytes.h"
#include "common/coding.h"

namespace segdiff {
namespace {

constexpr PageId kCatalogRootPage = 1;
constexpr uint32_t kCatalogMagic = 0x43544C47;  // "CTLG"
constexpr uint32_t kCatalogVersion = 3;
constexpr size_t kChainHeaderBytes = 16;
constexpr size_t kChainPayloadBytes = kPageCapacity - kChainHeaderBytes;

}  // namespace

std::string EncodeCatalog(const CatalogData& catalog) {
  ByteWriter w;
  w.U32(kCatalogMagic);
  w.U32(kCatalogVersion);
  w.U32(static_cast<uint32_t>(catalog.tables.size()));
  for (const TableMeta& table : catalog.tables) {
    w.Str(table.name);
    w.U16(static_cast<uint16_t>(table.schema.num_columns()));
    for (const Column& column : table.schema.columns()) {
      w.Str(column.name);
      w.U8(static_cast<uint8_t>(column.type));
    }
    w.U64(table.heap.first_page);
    w.U64(table.heap.last_page);
    w.U64(table.heap.record_count);
    w.U64(table.heap.page_count);
    w.U16(static_cast<uint16_t>(table.indexes.size()));
    for (const IndexMeta& index : table.indexes) {
      w.Str(index.name);
      w.U8(static_cast<uint8_t>(index.key_columns.size()));
      for (size_t column : index.key_columns) {
        w.U16(static_cast<uint16_t>(column));
      }
      w.U64(index.meta_page);
    }
    // Columnar segment directory (v3). Zone stats are serialized at the
    // table's full arity so pruning needs no segment IO after reopen.
    const size_t ncols = table.schema.num_columns();
    w.U32(static_cast<uint32_t>(table.columnar.segments.size()));
    for (const ColumnSegmentInfo& segment : table.columnar.segments) {
      w.U64(segment.first_page);
      w.U32(segment.rows);
      w.U32(segment.pages);
      w.U64(segment.encoded_bytes);
      w.U32(segment.nan_mask);
      for (size_t c = 0; c < ncols; ++c) {
        w.F64(c < segment.min.size() ? segment.min[c] : 0.0);
        w.F64(c < segment.max.size() ? segment.max[c] : -1.0);
      }
    }
  }
  w.U32(static_cast<uint32_t>(catalog.blobs.size()));
  for (const auto& [name, blob] : catalog.blobs) {
    w.Str(name);
    w.U32(static_cast<uint32_t>(blob.size()));
    w.Bytes(blob);
  }
  return w.Take();
}

Result<CatalogData> DecodeCatalog(const std::string& payload) {
  ByteReader r(payload);
  SEGDIFF_ASSIGN_OR_RETURN(const uint32_t magic, r.U32());
  if (magic != kCatalogMagic) {
    return Status::Corruption("bad catalog magic");
  }
  SEGDIFF_ASSIGN_OR_RETURN(const uint32_t version, r.U32());
  if (version != kCatalogVersion) {
    return Status::Corruption("unsupported catalog version " +
                              std::to_string(version));
  }
  CatalogData catalog;
  // The fewest bytes a table, a segment entry and a blob encode to.
  constexpr size_t kMinTableBytes = 2 + 2 + 4 * 8 + 2 + 4;
  constexpr size_t kMinSegmentBytes = 8 + 4 + 4 + 8 + 4;
  constexpr size_t kMinBlobBytes = 2 + 4;
  SEGDIFF_ASSIGN_OR_RETURN(const uint32_t table_count,
                           r.Count(kMinTableBytes));
  for (uint32_t t = 0; t < table_count; ++t) {
    TableMeta meta;
    SEGDIFF_ASSIGN_OR_RETURN(meta.name, r.Str());
    SEGDIFF_ASSIGN_OR_RETURN(const uint16_t ncols, r.U16());
    std::vector<Column> columns;
    for (uint16_t c = 0; c < ncols; ++c) {
      Column column;
      SEGDIFF_ASSIGN_OR_RETURN(column.name, r.Str());
      SEGDIFF_ASSIGN_OR_RETURN(const uint8_t type, r.U8());
      if (type > 1) {
        return Status::Corruption("bad column type");
      }
      column.type = static_cast<ColumnType>(type);
      columns.push_back(std::move(column));
    }
    SEGDIFF_ASSIGN_OR_RETURN(meta.schema,
                             TableSchema::Create(std::move(columns)));
    SEGDIFF_ASSIGN_OR_RETURN(meta.heap.first_page, r.U64());
    SEGDIFF_ASSIGN_OR_RETURN(meta.heap.last_page, r.U64());
    SEGDIFF_ASSIGN_OR_RETURN(meta.heap.record_count, r.U64());
    SEGDIFF_ASSIGN_OR_RETURN(meta.heap.page_count, r.U64());
    SEGDIFF_ASSIGN_OR_RETURN(const uint16_t nindexes, r.U16());
    for (uint16_t i = 0; i < nindexes; ++i) {
      IndexMeta index;
      SEGDIFF_ASSIGN_OR_RETURN(index.name, r.Str());
      SEGDIFF_ASSIGN_OR_RETURN(const uint8_t key_columns, r.U8());
      for (uint8_t k = 0; k < key_columns; ++k) {
        SEGDIFF_ASSIGN_OR_RETURN(const uint16_t column, r.U16());
        index.key_columns.push_back(column);
      }
      SEGDIFF_ASSIGN_OR_RETURN(index.meta_page, r.U64());
      meta.indexes.push_back(std::move(index));
    }
    const size_t seg_cols = meta.schema.num_columns();
    SEGDIFF_ASSIGN_OR_RETURN(const uint32_t nsegments,
                             r.Count(kMinSegmentBytes + 16 * seg_cols));
    meta.columnar.segments.reserve(nsegments);
    for (uint32_t s = 0; s < nsegments; ++s) {
      ColumnSegmentInfo segment;
      SEGDIFF_ASSIGN_OR_RETURN(segment.first_page, r.U64());
      SEGDIFF_ASSIGN_OR_RETURN(segment.rows, r.U32());
      SEGDIFF_ASSIGN_OR_RETURN(segment.pages, r.U32());
      SEGDIFF_ASSIGN_OR_RETURN(segment.encoded_bytes, r.U64());
      SEGDIFF_ASSIGN_OR_RETURN(segment.nan_mask, r.U32());
      segment.min.resize(seg_cols);
      segment.max.resize(seg_cols);
      for (size_t c = 0; c < seg_cols; ++c) {
        SEGDIFF_ASSIGN_OR_RETURN(segment.min[c], r.F64());
        SEGDIFF_ASSIGN_OR_RETURN(segment.max[c], r.F64());
      }
      meta.columnar.row_count += segment.rows;
      meta.columnar.page_count += segment.pages;
      meta.columnar.encoded_bytes += segment.encoded_bytes;
      meta.columnar.segments.push_back(std::move(segment));
    }
    catalog.tables.push_back(std::move(meta));
  }
  SEGDIFF_ASSIGN_OR_RETURN(const uint32_t blob_count, r.Count(kMinBlobBytes));
  for (uint32_t b = 0; b < blob_count; ++b) {
    SEGDIFF_ASSIGN_OR_RETURN(std::string name, r.Str());
    SEGDIFF_ASSIGN_OR_RETURN(const uint32_t length, r.U32());
    SEGDIFF_ASSIGN_OR_RETURN(std::string blob, r.Bytes(length));
    catalog.blobs[std::move(name)] = std::move(blob);
  }
  SEGDIFF_RETURN_IF_ERROR(r.End());
  return catalog;
}

Status WriteCatalog(BufferPool* pool, const std::string& payload) {
  // Spill the payload over the chain, reusing pages already in the chain.
  size_t offset = 0;
  PageId current = kCatalogRootPage;
  for (;;) {
    SEGDIFF_ASSIGN_OR_RETURN(PageHandle page, pool->FetchMut(current));
    const size_t chunk =
        std::min(kChainPayloadBytes, payload.size() - offset);
    EncodeFixed32(page.data() + 8, static_cast<uint32_t>(chunk));
    if (chunk > 0) {
      std::memcpy(page.data() + kChainHeaderBytes, payload.data() + offset,
                  chunk);
    }
    offset += chunk;
    PageId next = DecodeFixed64(page.data());
    if (offset >= payload.size()) {
      // Terminate here; any longer previous chain is abandoned in place
      // (pages are not reclaimed; catalogs only grow in practice).
      EncodeFixed64(page.data(), kInvalidPageId);
      page.MarkDirty();
      break;
    }
    if (next == kInvalidPageId || next == 0) {
      SEGDIFF_ASSIGN_OR_RETURN(PageHandle fresh, pool->AllocatePinned());
      next = fresh.page_id();
      EncodeFixed64(fresh.data(), kInvalidPageId);
      fresh.MarkDirty();
    }
    EncodeFixed64(page.data(), next);
    page.MarkDirty();
    current = next;
  }
  return Status::OK();
}

Result<CatalogData> ReadCatalog(BufferPool* pool, std::string* raw) {
  // A chain longer than the file has a cycle: a checksum-valid page
  // whose next pointer names an earlier chain page.
  const uint64_t max_pages = pool->pager()->page_count();
  std::string payload;
  PageId current = kCatalogRootPage;
  for (uint64_t walked = 0; current != kInvalidPageId && current != 0;
       ++walked) {
    if (walked == max_pages) {
      return Status::Corruption("catalog page chain does not end within " +
                                std::to_string(max_pages) + " pages");
    }
    SEGDIFF_ASSIGN_OR_RETURN(PageHandle page, pool->Fetch(current));
    const uint32_t chunk = DecodeFixed32(page.data() + 8);
    if (chunk > kChainPayloadBytes) {
      return Status::Corruption("catalog chunk too large");
    }
    payload.append(page.data() + kChainHeaderBytes, chunk);
    current = DecodeFixed64(page.data());
  }
  CatalogData catalog;  // an empty chain: page 1 was never written
  if (!payload.empty()) {
    SEGDIFF_ASSIGN_OR_RETURN(catalog, DecodeCatalog(payload));
  }
  if (raw != nullptr) {
    *raw = std::move(payload);
  }
  return catalog;
}

}  // namespace segdiff
