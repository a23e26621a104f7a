// Scan-kernel correctness: the heap-page gather feeding every compare
// variant, against the scalar predicate evaluator (NaN included), plus
// a differential fuzz harness proving that the batched + zone-map-pruned
// scan — serial and partitioned across a thread pool — returns
// byte-identical results and consistent statistics versus the
// row-at-a-time baseline on randomized workloads (random schemas, row
// counts, NaN densities, and conjunctive predicates, including
// all-pruned and empty-table cases) — and that the any-of scan over
// several predicates emits exactly the union of their single-predicate
// scans.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_paths.h"

#include "common/coding.h"
#include "common/env.h"
#include "common/random.h"
#include "query/executor.h"
#include "query/predicate.h"
#include "query/scan_kernel.h"
#include "storage/db.h"

namespace segdiff {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

CmpOp RandomOp(Rng& rng) {
  static const CmpOp kOps[] = {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                               CmpOp::kGe, CmpOp::kEq};
  return kOps[rng.UniformU64(5)];
}

/// A random conjunction of 0-3 cluster-scale conditions over
/// `num_columns` columns, with a residual (a parity test on column
/// `residual_column`) 30% of the time.
Predicate RandomPredicate(Rng& rng, size_t num_columns,
                          size_t residual_column) {
  Predicate predicate;
  const size_t num_conditions = rng.UniformU64(4);  // 0 = scan all
  for (size_t k = 0; k < num_conditions; ++k) {
    // Cluster-scale bounds: selective but regularly non-empty. An
    // occasional far-out bound makes the all-pruned case common too.
    const double value = rng.Bernoulli(0.15) ? rng.Uniform(500.0, 1000.0)
                                             : rng.Uniform(-60.0, 60.0);
    predicate.And(rng.UniformU64(num_columns), RandomOp(rng), value);
  }
  if (rng.Bernoulli(0.3)) {
    predicate.AndResidual([residual_column](const char* record) {
      const double v = DecodeDoubleColumn(record, residual_column);
      return v == v && std::fmod(std::fabs(v), 2.0) < 1.0;
    });
  }
  return predicate;
}

TEST(ScanKernelTest, VariantsMatchEvalConditionIncludingNaN) {
  struct Variant {
    const char* name;
    ColumnCompareFn fn;
  };
  std::vector<Variant> variants = {{"scalar", ScalarColumnCompare()}};
  if (Sse2ColumnCompare() != nullptr) {
    variants.push_back({"sse2", Sse2ColumnCompare()});
  }
  if (Avx2ColumnCompare() != nullptr && CpuHasAvx2()) {
    variants.push_back({"avx2", Avx2ColumnCompare()});
  }
  ASSERT_NE(variants[0].fn, nullptr);

  Rng rng(2008);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t num_columns = 1 + rng.UniformU64(6);
    const size_t record_bytes = num_columns * 8;
    const size_t count = 1 + rng.UniformU64(kMaxBatchRows);
    std::vector<char> records(count * record_bytes);
    for (size_t i = 0; i < count; ++i) {
      for (size_t c = 0; c < num_columns; ++c) {
        const double v =
            rng.Bernoulli(0.05) ? kNaN : rng.Uniform(-100.0, 100.0);
        EncodeDouble(records.data() + i * record_bytes + c * 8, v);
      }
    }
    std::vector<ColumnCondition> conditions;
    const size_t num_conditions = 1 + rng.UniformU64(3);
    for (size_t k = 0; k < num_conditions; ++k) {
      const double value =
          rng.Bernoulli(0.05) ? kNaN : rng.Uniform(-100.0, 100.0);
      conditions.push_back(
          {rng.UniformU64(num_columns), RandomOp(rng), value});
    }

    for (const Variant& variant : variants) {
      // The heap page's path: gather each condition's column, then AND
      // its compare into the bitmap.
      uint64_t bitmap[kBatchBitmapWords];
      ColumnBatch vals;
      InitSelectionBitmap(count, bitmap);
      for (const ColumnCondition& condition : conditions) {
        GatherColumn(records.data(), record_bytes, count, condition.column,
                     vals.vals);
        variant.fn(vals.vals, count, condition.op, condition.value, bitmap);
      }
      for (size_t i = 0; i < count; ++i) {
        bool expect = true;
        for (const ColumnCondition& condition : conditions) {
          expect =
              expect &&
              EvalCondition(condition, records.data() + i * record_bytes);
        }
        const bool got = (bitmap[i / 64] >> (i % 64)) & 1u;
        ASSERT_EQ(got, expect)
            << variant.name << " trial " << trial << " row " << i;
      }
      // Bits at and above `count` stay zero within the written words
      // (callers iterate whole words).
      const size_t written_bits = (count + 63) / 64 * 64;
      for (size_t i = count; i < written_bits; ++i) {
        ASSERT_FALSE((bitmap[i / 64] >> (i % 64)) & 1u)
            << variant.name << " ghost bit " << i;
      }
    }
  }
}

TEST(ScanKernelTest, EmptyConditionListSelectsEverything) {
  // A predicate without conditions keeps the initial selection: every
  // row of the batch, and no bit past it.
  uint64_t bitmap[kBatchBitmapWords];
  InitSelectionBitmap(8, bitmap);
  EXPECT_EQ(bitmap[0], 0xFFu);
  InitSelectionBitmap(kMaxBatchRows, bitmap);
  for (size_t w = 0; w + 1 < kBatchBitmapWords; ++w) {
    EXPECT_EQ(bitmap[w], ~uint64_t{0}) << "word " << w;
  }
  EXPECT_EQ(bitmap[kBatchBitmapWords - 1],
            ~uint64_t{0} >> (kBatchBitmapWords * 64 - kMaxBatchRows));
}

// SEGDIFF_SCAN_KERNEL picks the process's compare variant, which is
// how the tier-1 script reruns the scan suites under each narrower one;
// an unset, unknown or unsupported request gets the widest supported.
TEST(ScanKernelTest, ActiveVariantHonoursOverride) {
  const std::string want = GetEnvString("SEGDIFF_SCAN_KERNEL", "");
  std::string expect = "scalar";
  ColumnCompareFn expect_fn = ScalarColumnCompare();
  if (want == "sse2" && Sse2ColumnCompare() != nullptr) {
    expect = "sse2";
    expect_fn = Sse2ColumnCompare();
  } else if (want != "scalar") {
    if (Avx2ColumnCompare() != nullptr && CpuHasAvx2()) {
      expect = "avx2";
      expect_fn = Avx2ColumnCompare();
    } else if (Sse2ColumnCompare() != nullptr) {
      expect = "sse2";
      expect_fn = Sse2ColumnCompare();
    }
  }
  EXPECT_EQ(ActiveScanKernelName(), expect) << "SEGDIFF_SCAN_KERNEL=" << want;
  EXPECT_EQ(ActiveColumnCompare(), expect_fn);
}

// The same choice picks how cursors decode packed columns: the AVX2
// unpack beside the AVX2 compare, the scalar loop beside the scalar and
// SSE2 ones. So SEGDIFF_SCAN_KERNEL=scalar|sse2, which the tier-1 script
// sets to rerun the scan suites, runs them on the scalar decode too.
TEST(ScanKernelTest, PackedDecodeFollowsTheCompareVariant) {
  const std::string want = GetEnvString("SEGDIFF_SCAN_KERNEL", "");
  if (want == "scalar" || want == "sse2") {
    EXPECT_EQ(ActivePackedDecode(), nullptr) << "SEGDIFF_SCAN_KERNEL=" << want;
  }
  if (std::string(ActiveScanKernelName()) == "avx2") {
    EXPECT_NE(ActivePackedDecode(), nullptr);
    EXPECT_EQ(ActivePackedDecode(), Avx2PackedDecode());
  } else {
    EXPECT_EQ(ActivePackedDecode(), nullptr) << ActiveScanKernelName();
  }
}

/// One differential trial: a randomized table + predicate, executed by
/// the row-at-a-time baseline, the batched kernel (with and without
/// pruning), and the partitioned parallel scan. Results must be
/// byte-identical in heap order and the statistics must be exact
/// partitions of the table.
class ScanDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("segdiff_scan_fuzz");
    std::remove(path_.c_str());
    auto db = Database::Open(path_, DatabaseOptions{});
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
  }
  void TearDown() override {
    db_.reset();
    std::remove(path_.c_str());
  }

  /// Byte-identical capture: RecordId plus the raw record bytes.
  struct Hit {
    uint64_t page;
    uint32_t slot;
    std::string bytes;
    bool operator==(const Hit& other) const {
      return page == other.page && slot == other.slot &&
             bytes == other.bytes;
    }
  };

  static RowCallback Capture(std::vector<Hit>* out, size_t record_bytes) {
    return [out, record_bytes](const char* record, RecordId id) {
      out->push_back(Hit{id.page, id.slot,
                         std::string(record, record_bytes)});
      return Status::OK();
    };
  }

  void CheckStats(const ScanStats& stats, const Table& table,
                  const char* what) {
    EXPECT_EQ(stats.rows_scanned + stats.rows_pruned, table.row_count())
        << what;
    EXPECT_EQ(stats.pages_scanned + stats.pages_pruned,
              table.heap_meta().page_count)
        << what;
  }

  void RunTrial(uint64_t seed) {
    Rng rng(seed);
    const size_t num_columns = 1 + rng.UniformU64(6);
    std::vector<std::string> names;
    for (size_t c = 0; c < num_columns; ++c) {
      names.push_back("c" + std::to_string(c));
    }
    auto schema = DoubleSchema(names);
    ASSERT_TRUE(schema.ok());
    const std::string table_name = "t" + std::to_string(seed);
    auto table_or = db_->CreateTable(table_name, *schema);
    ASSERT_TRUE(table_or.ok());
    Table* table = *table_or;
    const size_t record_bytes = num_columns * 8;

    // Rows arrive in value clusters so zone maps actually prune some
    // pages (uniformly random data defeats pruning by construction).
    const uint64_t rows = rng.UniformU64(5000);  // 0 = empty table
    const double nan_p = rng.Bernoulli(0.3) ? 0.05 : 0.0;
    double center = rng.Uniform(-50.0, 50.0);
    std::vector<double> row(num_columns);
    for (uint64_t i = 0; i < rows; ++i) {
      if (i % 512 == 0) {
        center = rng.Uniform(-50.0, 50.0);  // new cluster
      }
      for (size_t c = 0; c < num_columns; ++c) {
        row[c] = rng.Bernoulli(nan_p) ? kNaN
                                      : center + rng.Uniform(-5.0, 5.0);
      }
      ASSERT_TRUE(table->InsertDoubles(row).ok());
    }

    const Predicate predicate = RandomPredicate(rng, num_columns, 0);

    // Baseline: row-at-a-time, no pruning — the pre-PR semantics.
    std::vector<Hit> baseline;
    ScanStats baseline_stats;
    ASSERT_TRUE(SeqScan(*table, predicate,
                        Capture(&baseline, record_bytes), &baseline_stats,
                        SeqScanOptions{/*batch=*/false, /*prune=*/false})
                    .ok());
    EXPECT_EQ(baseline_stats.rows_scanned, table->row_count());
    EXPECT_EQ(baseline_stats.pages_pruned, 0u);
    CheckStats(baseline_stats, *table, "baseline");

    // Batched kernel without pruning: same rows, same page walk.
    std::vector<Hit> batched;
    ScanStats batched_stats;
    ASSERT_TRUE(SeqScan(*table, predicate, Capture(&batched, record_bytes),
                        &batched_stats,
                        SeqScanOptions{/*batch=*/true, /*prune=*/false})
                    .ok());
    EXPECT_EQ(batched, baseline) << "seed " << seed;
    EXPECT_EQ(batched_stats.rows_scanned, baseline_stats.rows_scanned);

    // Full fast path: batched + pruned.
    std::vector<Hit> pruned;
    ScanStats pruned_stats;
    ASSERT_TRUE(
        SeqScan(*table, predicate, Capture(&pruned, record_bytes),
                &pruned_stats, SeqScanOptions{})
            .ok());
    EXPECT_EQ(pruned, baseline) << "seed " << seed;
    EXPECT_EQ(pruned_stats.rows_matched, baseline_stats.rows_matched);
    CheckStats(pruned_stats, *table, "pruned");

    // Partitioned parallel scan with the default (pruned) options.
    const size_t partitions = 1 + rng.UniformU64(5);
    std::vector<std::vector<Hit>> parts(partitions);
    ScanStats parallel_stats;
    ASSERT_TRUE(ParallelSeqScan(
                    *table, predicate, partitions,
                    [&parts, record_bytes](size_t p) {
                      return Capture(&parts[p], record_bytes);
                    },
                    &parallel_stats)
                    .ok());
    std::vector<Hit> merged;
    for (const auto& part : parts) {
      merged.insert(merged.end(), part.begin(), part.end());
    }
    EXPECT_EQ(merged, baseline) << "seed " << seed;
    // Parallel statistics are identical to the serial pruned scan's —
    // same pages pruned, same rows examined, merged in page order.
    EXPECT_EQ(parallel_stats.rows_scanned, pruned_stats.rows_scanned);
    EXPECT_EQ(parallel_stats.rows_pruned, pruned_stats.rows_pruned);
    EXPECT_EQ(parallel_stats.pages_scanned, pruned_stats.pages_scanned);
    EXPECT_EQ(parallel_stats.pages_pruned, pruned_stats.pages_pruned);
    EXPECT_EQ(parallel_stats.rows_matched, pruned_stats.rows_matched);

    // Any-of input: 1-4 predicates (each may carry a residual) in one
    // pass.
    std::vector<Predicate> any_of;
    const size_t num_predicates = 1 + rng.UniformU64(4);
    for (size_t i = 0; i < num_predicates; ++i) {
      any_of.push_back(RandomPredicate(rng, num_columns, i % num_columns));
    }
    CheckAnyOf(*table, any_of, seed);
  }

  /// The any-of scan of `predicates` emits exactly the union of the
  /// single-predicate row-at-a-time scans — each row once, in scan
  /// order — in every mode (batch and prune on and off, 1-4 partitions),
  /// with every row scanned or pruned and each selected row counted once.
  void CheckAnyOf(const Table& table, const std::vector<Predicate>& predicates,
                  uint64_t seed) {
    const size_t record_bytes = table.schema().RowBytes();
    const SeqScanOptions kRowAtATime{/*batch=*/false, /*prune=*/false};
    std::vector<Hit> all;
    ASSERT_TRUE(SeqScan(table, Predicate::True(), Capture(&all, record_bytes),
                        nullptr, kRowAtATime)
                    .ok());
    std::set<std::pair<uint64_t, uint32_t>> selected;
    for (const Predicate& predicate : predicates) {
      std::vector<Hit> single;
      ASSERT_TRUE(SeqScan(table, predicate, Capture(&single, record_bytes),
                          nullptr, kRowAtATime)
                      .ok());
      for (const Hit& hit : single) {
        selected.insert({hit.page, hit.slot});
      }
    }
    std::vector<Hit> expected;
    for (const Hit& hit : all) {
      if (selected.count({hit.page, hit.slot}) > 0) {
        expected.push_back(hit);
      }
    }

    ScanStats pruned_stats;
    for (const bool batch : {false, true}) {
      for (const bool prune : {false, true}) {
        const SeqScanOptions options{batch, prune};
        std::vector<Hit> got;
        ScanStats stats;
        ASSERT_TRUE(SeqScan(table, predicates, Capture(&got, record_bytes),
                            &stats, options)
                        .ok());
        EXPECT_EQ(got, expected) << "seed " << seed << " batch=" << batch
                                 << " prune=" << prune;
        EXPECT_EQ(stats.rows_matched, expected.size()) << "seed " << seed;
        CheckStats(stats, table, "any-of");
        if (!prune) {
          EXPECT_EQ(stats.rows_scanned, table.row_count());
        }
        ScanStats count_stats;
        ASSERT_TRUE(
            SeqScan(table, predicates, nullptr, &count_stats, options).ok());
        EXPECT_EQ(count_stats.rows_matched, expected.size());
        EXPECT_EQ(count_stats.pages_pruned, stats.pages_pruned);
        if (batch && prune) {
          pruned_stats = stats;
        }
      }
    }
    for (size_t partitions = 1; partitions <= 4; ++partitions) {
      std::vector<std::vector<Hit>> parts(partitions);
      ScanStats parallel_stats;
      ASSERT_TRUE(ParallelSeqScan(
                      table, predicates, partitions,
                      [&parts, record_bytes](size_t p) {
                        return Capture(&parts[p], record_bytes);
                      },
                      &parallel_stats)
                      .ok());
      std::vector<Hit> merged;
      for (const auto& part : parts) {
        merged.insert(merged.end(), part.begin(), part.end());
      }
      EXPECT_EQ(merged, expected)
          << "seed " << seed << ", " << partitions << " partitions";
      EXPECT_EQ(parallel_stats.rows_scanned, pruned_stats.rows_scanned);
      EXPECT_EQ(parallel_stats.rows_pruned, pruned_stats.rows_pruned);
      EXPECT_EQ(parallel_stats.pages_pruned, pruned_stats.pages_pruned);
      EXPECT_EQ(parallel_stats.rows_matched, expected.size());
    }
  }

  std::string path_;
  std::unique_ptr<Database> db_;
};

TEST_F(ScanDifferentialTest, RandomWorkloadsAgreeAcrossAllScanModes) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    RunTrial(seed);
    if (HasFatalFailure()) {
      return;
    }
  }
}

TEST_F(ScanDifferentialTest, AllPrunedTableReturnsNothingButCountsEverything) {
  auto schema = DoubleSchema({"dt", "dv"});
  auto table_or = db_->CreateTable("t", *schema);
  ASSERT_TRUE(table_or.ok());
  Table* table = *table_or;
  Rng rng(5);
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(
        table->InsertDoubles({rng.Uniform(0, 100), rng.Uniform(-10, 10)})
            .ok());
  }
  Predicate predicate;
  predicate.And(0, CmpOp::kGt, 1000.0);  // beyond every zone
  uint64_t matched = 0;
  ScanStats stats;
  ASSERT_TRUE(SeqScan(*table, predicate,
                      [&](const char*, RecordId) {
                        ++matched;
                        return Status::OK();
                      },
                      &stats)
                  .ok());
  EXPECT_EQ(matched, 0u);
  EXPECT_EQ(stats.pages_scanned, 0u);
  EXPECT_EQ(stats.pages_pruned, table->heap_meta().page_count);
  EXPECT_EQ(stats.rows_pruned, 4000u);
  EXPECT_EQ(stats.rows_scanned, 0u);
}

TEST_F(ScanDifferentialTest, EmptyTableScansCleanly) {
  auto schema = DoubleSchema({"a"});
  auto table_or = db_->CreateTable("t", *schema);
  ASSERT_TRUE(table_or.ok());
  Predicate predicate;
  predicate.And(0, CmpOp::kLe, 0.0);
  ScanStats stats;
  ASSERT_TRUE(SeqScan(**table_or, predicate,
                      [](const char*, RecordId) { return Status::OK(); },
                      &stats)
                  .ok());
  EXPECT_EQ(stats.rows_scanned + stats.rows_pruned, 0u);
  EXPECT_EQ(stats.rows_matched, 0u);
}

TEST_F(ScanDifferentialTest, ResidualOnlyPredicateDisablesPruning) {
  auto schema = DoubleSchema({"a"});
  auto table_or = db_->CreateTable("t", *schema);
  ASSERT_TRUE(table_or.ok());
  Table* table = *table_or;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(table->InsertDoubles({static_cast<double>(i)}).ok());
  }
  Predicate predicate;
  predicate.AndResidual([](const char* record) {
    return DecodeDoubleColumn(record, 0) >= 95.0;
  });
  uint64_t matched = 0;
  ScanStats stats;
  ASSERT_TRUE(SeqScan(*table, predicate,
                      [&](const char*, RecordId) {
                        ++matched;
                        return Status::OK();
                      },
                      &stats)
                  .ok());
  // A residual carries no column bounds, so nothing may be pruned.
  EXPECT_EQ(matched, 5u);
  EXPECT_EQ(stats.pages_pruned, 0u);
  EXPECT_EQ(stats.rows_scanned, 100u);
}

// An any-of scan prunes a page only when no predicate can match it: a
// page that a single predicate can match is scanned (and evaluates only
// that predicate), every other page is pruned.
TEST_F(ScanDifferentialTest, AnyOfPrunesOnlyPagesNoPredicateCanMatch) {
  auto schema = DoubleSchema({"t", "v"});
  auto table_or = db_->CreateTable("t", *schema);
  ASSERT_TRUE(table_or.ok());
  Table* table = *table_or;
  constexpr int kRows = 4000;
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE(
        table->InsertDoubles({static_cast<double>(i), i % 2 ? 1.0 : -1.0})
            .ok());
  }
  const uint64_t pages = table->heap_meta().page_count;
  ASSERT_GE(pages, 4u);
  Predicate first;  // rows 0-9: the first page only
  first.And(0, CmpOp::kLt, 10.0);
  Predicate last;   // rows 3990-3999, and only the odd ones
  last.And(0, CmpOp::kGe, kRows - 10.0).And(1, CmpOp::kGt, 0.0);
  Predicate none;   // beyond every zone
  none.And(0, CmpOp::kGt, 1e9);
  const std::vector<Predicate> any_of = {first, none, last};

  std::vector<double> matched;
  ScanStats stats;
  ASSERT_TRUE(SeqScan(*table, any_of,
                      [&](const char* record, RecordId) {
                        matched.push_back(DecodeDoubleColumn(record, 0));
                        return Status::OK();
                      },
                      &stats)
                  .ok());
  std::vector<double> expected;
  for (int i = 0; i < 10; ++i) expected.push_back(i);
  for (int i = kRows - 10; i < kRows; ++i) {
    if (i % 2) expected.push_back(i);
  }
  EXPECT_EQ(matched, expected);
  EXPECT_EQ(stats.rows_matched, expected.size());
  EXPECT_EQ(stats.pages_scanned, 2u);
  EXPECT_EQ(stats.pages_pruned, pages - 2);
  EXPECT_EQ(stats.rows_scanned + stats.rows_pruned,
            static_cast<uint64_t>(kRows));

  // Only the impossible predicate: every page is pruned.
  ScanStats none_stats;
  ASSERT_TRUE(SeqScan(*table, std::vector<Predicate>{none, none}, nullptr,
                      &none_stats)
                  .ok());
  EXPECT_EQ(none_stats.pages_pruned, pages);
  EXPECT_EQ(none_stats.rows_scanned, 0u);
  EXPECT_EQ(none_stats.rows_matched, 0u);
}

}  // namespace
}  // namespace segdiff
