#include "storage/catalog.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/coding.h"

namespace segdiff {
namespace {

constexpr PageId kCatalogRootPage = 1;
constexpr uint32_t kCatalogMagic = 0x43544C47;  // "CTLG"
constexpr uint32_t kCatalogVersion = 3;
constexpr size_t kChainHeaderBytes = 16;
constexpr size_t kChainPayloadBytes = kPageCapacity - kChainHeaderBytes;

void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
void AppendU16(std::string* out, uint16_t v) {
  char buf[2];
  EncodeFixed16(buf, v);
  out->append(buf, 2);
}
void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  EncodeFixed32(buf, v);
  out->append(buf, 4);
}
void AppendU64(std::string* out, uint64_t v) {
  char buf[8];
  EncodeFixed64(buf, v);
  out->append(buf, 8);
}
void AppendStr(std::string* out, const std::string& s) {
  AppendU16(out, static_cast<uint16_t>(s.size()));
  out->append(s);
}
void AppendF64(std::string* out, double v) {
  char buf[8];
  EncodeDouble(buf, v);
  out->append(buf, 8);
}

/// Bounds-checked reader over the catalog payload.
class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}

  Status Need(size_t n) {
    if (pos_ + n > size_) {
      return Status::Corruption("catalog payload truncated");
    }
    return Status::OK();
  }
  Result<uint8_t> U8() {
    SEGDIFF_RETURN_IF_ERROR(Need(1));
    return static_cast<uint8_t>(data_[pos_++]);
  }
  Result<uint16_t> U16() {
    SEGDIFF_RETURN_IF_ERROR(Need(2));
    uint16_t v = DecodeFixed16(data_ + pos_);
    pos_ += 2;
    return v;
  }
  Result<uint32_t> U32() {
    SEGDIFF_RETURN_IF_ERROR(Need(4));
    uint32_t v = DecodeFixed32(data_ + pos_);
    pos_ += 4;
    return v;
  }
  Result<uint64_t> U64() {
    SEGDIFF_RETURN_IF_ERROR(Need(8));
    uint64_t v = DecodeFixed64(data_ + pos_);
    pos_ += 8;
    return v;
  }
  Result<double> F64() {
    SEGDIFF_RETURN_IF_ERROR(Need(8));
    double v = DecodeDouble(data_ + pos_);
    pos_ += 8;
    return v;
  }
  Result<std::string> Str() {
    SEGDIFF_ASSIGN_OR_RETURN(uint16_t len, U16());
    return Bytes(len);
  }
  Result<std::string> Bytes(size_t len) {
    SEGDIFF_RETURN_IF_ERROR(Need(len));
    std::string s(data_ + pos_, len);
    pos_ += len;
    return s;
  }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace

std::string EncodeCatalog(const CatalogData& catalog) {
  const std::vector<TableMeta>& tables = catalog.tables;
  std::string payload;
  AppendU32(&payload, kCatalogMagic);
  AppendU32(&payload, kCatalogVersion);
  AppendU32(&payload, static_cast<uint32_t>(tables.size()));
  for (const TableMeta& table : tables) {
    AppendStr(&payload, table.name);
    AppendU16(&payload, static_cast<uint16_t>(table.schema.num_columns()));
    for (const Column& column : table.schema.columns()) {
      AppendStr(&payload, column.name);
      AppendU8(&payload, static_cast<uint8_t>(column.type));
    }
    AppendU64(&payload, table.heap.first_page);
    AppendU64(&payload, table.heap.last_page);
    AppendU64(&payload, table.heap.record_count);
    AppendU64(&payload, table.heap.page_count);
    AppendU16(&payload, static_cast<uint16_t>(table.indexes.size()));
    for (const IndexMeta& index : table.indexes) {
      AppendStr(&payload, index.name);
      AppendU8(&payload, static_cast<uint8_t>(index.key_columns.size()));
      for (size_t column : index.key_columns) {
        AppendU16(&payload, static_cast<uint16_t>(column));
      }
      AppendU64(&payload, index.meta_page);
    }
    // Columnar segment directory (v3). Zone stats are serialized at the
    // table's full arity so pruning needs no segment IO after reopen.
    const size_t ncols = table.schema.num_columns();
    AppendU32(&payload,
              static_cast<uint32_t>(table.columnar.segments.size()));
    for (const ColumnSegmentInfo& segment : table.columnar.segments) {
      AppendU64(&payload, segment.first_page);
      AppendU32(&payload, segment.rows);
      AppendU32(&payload, segment.pages);
      AppendU64(&payload, segment.encoded_bytes);
      AppendU32(&payload, segment.nan_mask);
      for (size_t c = 0; c < ncols; ++c) {
        AppendF64(&payload, c < segment.min.size() ? segment.min[c] : 0.0);
        AppendF64(&payload, c < segment.max.size() ? segment.max[c] : -1.0);
      }
    }
  }
  AppendU32(&payload, static_cast<uint32_t>(catalog.blobs.size()));
  for (const auto& [name, blob] : catalog.blobs) {
    AppendStr(&payload, name);
    AppendU32(&payload, static_cast<uint32_t>(blob.size()));
    payload.append(blob);
  }
  return payload;
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
  std::string payload;
  PageId current = kCatalogRootPage;
  while (current != kInvalidPageId && current != 0) {
    SEGDIFF_ASSIGN_OR_RETURN(PageHandle page, pool->Fetch(current));
    const uint32_t chunk = DecodeFixed32(page.data() + 8);
    if (chunk > kChainPayloadBytes) {
      return Status::Corruption("catalog chunk too large");
    }
    payload.append(page.data() + kChainHeaderBytes, chunk);
    current = DecodeFixed64(page.data());
  }
  if (raw != nullptr) {
    *raw = payload;
  }
  CatalogData catalog;
  std::vector<TableMeta>& tables = catalog.tables;
  if (payload.size() < 12) {
    return catalog;  // fresh database
  }
  Reader reader(payload.data(), payload.size());
  SEGDIFF_ASSIGN_OR_RETURN(uint32_t magic, reader.U32());
  if (magic != kCatalogMagic) {
    return Status::Corruption("bad catalog magic");
  }
  SEGDIFF_ASSIGN_OR_RETURN(uint32_t version, reader.U32());
  if (version != kCatalogVersion) {
    return Status::Corruption("unsupported catalog version " +
                              std::to_string(version));
  }
  SEGDIFF_ASSIGN_OR_RETURN(uint32_t table_count, reader.U32());
  for (uint32_t t = 0; t < table_count; ++t) {
    TableMeta meta;
    SEGDIFF_ASSIGN_OR_RETURN(meta.name, reader.Str());
    SEGDIFF_ASSIGN_OR_RETURN(uint16_t ncols, reader.U16());
    std::vector<Column> columns;
    for (uint16_t c = 0; c < ncols; ++c) {
      Column column;
      SEGDIFF_ASSIGN_OR_RETURN(column.name, reader.Str());
      SEGDIFF_ASSIGN_OR_RETURN(uint8_t type, reader.U8());
      if (type > 1) {
        return Status::Corruption("bad column type");
      }
      column.type = static_cast<ColumnType>(type);
      columns.push_back(std::move(column));
    }
    SEGDIFF_ASSIGN_OR_RETURN(meta.schema,
                             TableSchema::Create(std::move(columns)));
    SEGDIFF_ASSIGN_OR_RETURN(meta.heap.first_page, reader.U64());
    SEGDIFF_ASSIGN_OR_RETURN(meta.heap.last_page, reader.U64());
    SEGDIFF_ASSIGN_OR_RETURN(meta.heap.record_count, reader.U64());
    SEGDIFF_ASSIGN_OR_RETURN(meta.heap.page_count, reader.U64());
    SEGDIFF_ASSIGN_OR_RETURN(uint16_t nindexes, reader.U16());
    for (uint16_t i = 0; i < nindexes; ++i) {
      IndexMeta index;
      SEGDIFF_ASSIGN_OR_RETURN(index.name, reader.Str());
      SEGDIFF_ASSIGN_OR_RETURN(uint8_t idx_cols, reader.U8());
      for (uint8_t k = 0; k < idx_cols; ++k) {
        SEGDIFF_ASSIGN_OR_RETURN(uint16_t col, reader.U16());
        index.key_columns.push_back(col);
      }
      SEGDIFF_ASSIGN_OR_RETURN(index.meta_page, reader.U64());
      meta.indexes.push_back(std::move(index));
    }
    SEGDIFF_ASSIGN_OR_RETURN(uint32_t nsegments, reader.U32());
    const size_t seg_cols = meta.schema.num_columns();
    for (uint32_t s = 0; s < nsegments; ++s) {
      ColumnSegmentInfo segment;
      SEGDIFF_ASSIGN_OR_RETURN(segment.first_page, reader.U64());
      SEGDIFF_ASSIGN_OR_RETURN(segment.rows, reader.U32());
      SEGDIFF_ASSIGN_OR_RETURN(segment.pages, reader.U32());
      SEGDIFF_ASSIGN_OR_RETURN(segment.encoded_bytes, reader.U64());
      SEGDIFF_ASSIGN_OR_RETURN(segment.nan_mask, reader.U32());
      segment.min.resize(seg_cols);
      segment.max.resize(seg_cols);
      for (size_t c = 0; c < seg_cols; ++c) {
        SEGDIFF_ASSIGN_OR_RETURN(segment.min[c], reader.F64());
        SEGDIFF_ASSIGN_OR_RETURN(segment.max[c], reader.F64());
      }
      meta.columnar.row_count += segment.rows;
      meta.columnar.page_count += segment.pages;
      meta.columnar.encoded_bytes += segment.encoded_bytes;
      meta.columnar.segments.push_back(std::move(segment));
    }
    tables.push_back(std::move(meta));
  }
  SEGDIFF_ASSIGN_OR_RETURN(uint32_t blob_count, reader.U32());
  for (uint32_t b = 0; b < blob_count; ++b) {
    SEGDIFF_ASSIGN_OR_RETURN(std::string name, reader.Str());
    SEGDIFF_ASSIGN_OR_RETURN(uint32_t length, reader.U32());
    SEGDIFF_ASSIGN_OR_RETURN(std::string blob, reader.Bytes(length));
    catalog.blobs[std::move(name)] = std::move(blob);
  }
  return catalog;
}

}  // namespace segdiff
