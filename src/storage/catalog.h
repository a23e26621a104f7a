// Catalog: persistent table/index metadata plus named meta blobs.
//
// Serialized into a page chain rooted at page 1 on Checkpoint(); read at
// Open(). Format version 3 (little endian, written with ByteWriter and
// read with ByteReader, common/bytes.h):
//   u32 magic | u32 version
//   u32 table_count
//   per table: str name | u16 ncols | per col: (str name, u8 type)
//              | heap meta (first, last, records, pages: u64 x 4)
//              | u16 nindexes
//              | per index: str name | u8 ncols | u16 col_idx... | u64 meta
//              | u32 nsegments
//              | per segment: u64 first_page | u32 rows | u32 pages
//                             | u64 encoded_bytes | u32 nan_mask
//                             | f64 min, f64 max per column
//   u32 blob_count
//   per blob:  str name | u32 length | bytes
// where str = u16 length + bytes. Meta blobs are opaque named payloads
// for engine state that rides along with the catalog — e.g. the ingest
// pipeline's resumable segmenter/extractor/pair-window state. The
// per-table segment directory is the persistent form of
// ColumnStoreMeta. DecodeCatalog mirrors EncodeCatalog and consumes the
// payload exactly: a catalog of any other version, a count whose
// entries cannot fit in the payload, or trailing bytes fail with
// Corruption.

#ifndef SEGDIFF_STORAGE_CATALOG_H_
#define SEGDIFF_STORAGE_CATALOG_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/buffer_pool.h"
#include "storage/column_page.h"
#include "storage/heap_file.h"
#include "storage/record.h"

namespace segdiff {

/// Plain serialized form of one index.
struct IndexMeta {
  std::string name;
  std::vector<size_t> key_columns;
  PageId meta_page = kInvalidPageId;
};

/// Plain serialized form of one table.
struct TableMeta {
  std::string name;
  TableSchema schema;
  HeapFileMeta heap;
  std::vector<IndexMeta> indexes;
  ColumnStoreMeta columnar;  ///< empty for pure row-format tables
};

/// The whole persistent catalog: table metadata plus named meta blobs
/// (an ordered map, so serialization is deterministic).
struct CatalogData {
  std::vector<TableMeta> tables;
  std::map<std::string, std::string> blobs;
};

/// Serializes the catalog into its payload. Deterministic: equal catalogs
/// encode to equal bytes, so a checkpoint can compare payloads to tell
/// whether the catalog changed.
std::string EncodeCatalog(const CatalogData& catalog);

/// Parses a payload EncodeCatalog produced; Corruption on anything else.
Result<CatalogData> DecodeCatalog(const std::string& payload);

/// Writes an encoded payload into the chain rooted at page 1, allocating
/// continuation pages as needed (pages are reused across checkpoints).
Status WriteCatalog(BufferPool* pool, const std::string& payload);

/// Walks the chain and decodes its payload; an all-zero page 1 yields an
/// empty catalog (fresh db), and a chain of more pages than the file
/// holds fails with Corruption. `raw`, when given, receives the payload
/// exactly as stored.
Result<CatalogData> ReadCatalog(BufferPool* pool, std::string* raw = nullptr);

}  // namespace segdiff

#endif  // SEGDIFF_STORAGE_CATALOG_H_
