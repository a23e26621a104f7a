// Raw records of a table, read the way the engine reads them.

#ifndef SEGDIFF_TESTS_TABLE_RECORDS_H_
#define SEGDIFF_TESTS_TABLE_RECORDS_H_

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "query/executor.h"
#include "storage/db.h"

namespace segdiff {

/// Every encoded record of table `name`, in scan (= insertion) order:
/// columnar segments, then the heap, through SeqScan.
inline std::vector<std::string> TableRecords(Database* db,
                                             const std::string& name) {
  std::vector<std::string> records;
  auto table = db->GetTable(name);
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  if (!table.ok()) {
    return records;
  }
  const size_t bytes = (*table)->schema().RowBytes();
  Status scan = SeqScan(**table, Predicate::True(),
                        [&](const char* record, RecordId) -> Status {
                          records.emplace_back(record, bytes);
                          return Status::OK();
                        });
  EXPECT_TRUE(scan.ok()) << scan.ToString();
  return records;
}

}  // namespace segdiff

#endif  // SEGDIFF_TESTS_TABLE_RECORDS_H_
