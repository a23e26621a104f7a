// Model-based randomized test of minidb: a random interleaving of
// CREATE TABLE / CREATE INDEX / INSERT / DeleteWhere / DropCaches /
// Checkpoint+reopen is mirrored against an in-memory model; after every
// phase the real database must agree with the model exactly, and every
// index must satisfy its structural invariants.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "query/executor.h"
#include "query/predicate.h"
#include "storage/db.h"

namespace segdiff {
namespace {

struct ModelTable {
  size_t columns = 1;
  std::vector<std::vector<double>> rows;
  size_t indexes = 0;
};

class DbModelTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "/segdiff_db_model_" +
            std::to_string(GetParam()) + ".db";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_P(DbModelTest, RandomOpsMatchModel) {
  Rng rng(GetParam());
  DatabaseOptions options;
  options.buffer_pool_pages = 64;  // small pool: force evictions
  auto db_or = Database::Open(path_, options);
  ASSERT_TRUE(db_or.ok());
  std::unique_ptr<Database> db = std::move(db_or).value();
  std::map<std::string, ModelTable> model;

  auto verify = [&]() {
    for (const auto& [name, expected] : model) {
      auto table = db->GetTable(name);
      ASSERT_TRUE(table.ok()) << name;
      ASSERT_EQ((*table)->row_count(), expected.rows.size()) << name;
      std::vector<std::vector<double>> actual;
      ASSERT_TRUE(SeqScan(**table, Predicate::True(),
                          [&](const char* record, RecordId) {
                            std::vector<double> row(expected.columns);
                            for (size_t c = 0; c < expected.columns; ++c) {
                              row[c] = DecodeDoubleColumn(record, c);
                            }
                            actual.push_back(std::move(row));
                            return Status::OK();
                          })
                      .ok());
      // Heap order can change across DeleteWhere rewrites; compare as
      // multisets.
      auto expected_sorted = expected.rows;
      std::sort(expected_sorted.begin(), expected_sorted.end());
      std::sort(actual.begin(), actual.end());
      ASSERT_EQ(actual, expected_sorted) << name;
      for (const TableIndex& index : (*table)->indexes()) {
        ASSERT_TRUE(index.tree->CheckInvariants().ok()) << index.name;
        ASSERT_EQ(index.tree->entry_count(), expected.rows.size());
      }
      ASSERT_EQ((*table)->indexes().size(), expected.indexes);
    }
  };

  for (int step = 0; step < 220; ++step) {
    const int op = static_cast<int>(rng.UniformInt(0, 99));
    if (op < 6 && model.size() < 4) {
      // CREATE TABLE with 1..3 double columns.
      const std::string name = "t" + std::to_string(model.size());
      const size_t columns = static_cast<size_t>(rng.UniformInt(1, 3));
      std::vector<std::string> names;
      for (size_t c = 0; c < columns; ++c) {
        names.push_back("c" + std::to_string(c));
      }
      auto schema = DoubleSchema(names);
      ASSERT_TRUE(schema.ok());
      ASSERT_TRUE(db->CreateTable(name, *schema).ok());
      model[name] = ModelTable{columns, {}, 0};
    } else if (op < 12 && !model.empty()) {
      // CREATE INDEX on a random prefix of columns.
      auto it = model.begin();
      std::advance(it, rng.UniformInt(0, static_cast<int64_t>(
                                             model.size() - 1)));
      ModelTable& m = it->second;
      if (m.indexes < 2) {
        auto table = db->GetTable(it->first);
        ASSERT_TRUE(table.ok());
        std::vector<std::string> key;
        const size_t arity = 1 + rng.UniformU64(m.columns);
        for (size_t c = 0; c < arity; ++c) {
          key.push_back("c" + std::to_string(c));
        }
        auto created = (*table)->CreateIndex(
            "i" + std::to_string(m.indexes), key);
        ASSERT_TRUE(created.ok()) << created.status().ToString();
        ++m.indexes;
      }
    } else if (op < 70 && !model.empty()) {
      // INSERT a burst of rows.
      auto it = model.begin();
      std::advance(it, rng.UniformInt(0, static_cast<int64_t>(
                                             model.size() - 1)));
      ModelTable& m = it->second;
      auto table = db->GetTable(it->first);
      ASSERT_TRUE(table.ok());
      const int burst = static_cast<int>(rng.UniformInt(1, 40));
      for (int i = 0; i < burst; ++i) {
        std::vector<double> row;
        for (size_t c = 0; c < m.columns; ++c) {
          row.push_back(rng.Uniform(-100, 100));
        }
        ASSERT_TRUE((*table)->InsertDoubles(row).ok());
        m.rows.push_back(std::move(row));
      }
    } else if (op < 80 && !model.empty()) {
      // DeleteWhere c0 < threshold.
      auto it = model.begin();
      std::advance(it, rng.UniformInt(0, static_cast<int64_t>(
                                             model.size() - 1)));
      ModelTable& m = it->second;
      auto table = db->GetTable(it->first);
      ASSERT_TRUE(table.ok());
      const double threshold = rng.Uniform(-120, 120);
      Predicate predicate;
      predicate.And(0, CmpOp::kLt, threshold);
      auto removed = (*table)->DeleteWhere(predicate);
      ASSERT_TRUE(removed.ok());
      const size_t before = m.rows.size();
      m.rows.erase(std::remove_if(m.rows.begin(), m.rows.end(),
                                  [threshold](const std::vector<double>& r) {
                                    return r[0] < threshold;
                                  }),
                   m.rows.end());
      ASSERT_EQ(*removed, before - m.rows.size());
    } else if (op < 88) {
      ASSERT_TRUE(db->DropCaches().ok());
    } else if (op < 94) {
      verify();
    } else {
      // Checkpoint + full reopen.
      ASSERT_TRUE(db->Checkpoint().ok());
      db.reset();
      auto reopened = Database::Open(path_, options);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      db = std::move(reopened).value();
      verify();
    }
  }
  verify();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DbModelTest,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace segdiff
