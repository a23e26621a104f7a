// google-benchmark micro-benchmarks for the hot paths: segmentation,
// feature extraction, B+-tree insert/seek, buffer-pool fetch, Model-G
// evaluation, and predicate matching.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "benchutil/workload.h"
#include "common/coding.h"
#include "common/logging.h"
#include "common/random.h"
#include "feature/extractor.h"
#include "index/bplus_tree.h"
#include "query/predicate.h"
#include "query/scan_kernel.h"
#include "segment/sliding_window.h"
#include "storage/buffer_pool.h"
#include "storage/column_page.h"
#include "storage/pager.h"
#include "ts/generator.h"
#include "ts/interpolate.h"

namespace segdiff {
namespace {

const Series& SharedWalk() {
  static const Series* series = [] {
    auto walk = GenerateRandomWalk(1, 100000, 300.0, 0.2);
    SEGDIFF_CHECK(walk.ok());
    return new Series(std::move(walk).value());
  }();
  return *series;
}

void BM_SlidingWindowSegmentation(benchmark::State& state) {
  const Series& series = SharedWalk();
  const double eps = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    auto pla = SegmentSeriesWithTolerance(series, eps);
    SEGDIFF_CHECK(pla.ok());
    benchmark::DoNotOptimize(pla->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(series.size()));
}
BENCHMARK(BM_SlidingWindowSegmentation)->Arg(10)->Arg(20)->Arg(80);

void BM_FeatureExtraction(benchmark::State& state) {
  const Series& series = SharedWalk();
  auto pla = SegmentSeriesWithTolerance(series, 0.2);
  SEGDIFF_CHECK(pla.ok());
  ExtractorOptions options;
  options.eps = 0.2;
  options.window_s = static_cast<double>(state.range(0)) * 3600.0;
  uint64_t rows = 0;
  for (auto _ : state) {
    rows = 0;
    Status status = ExtractFeatures(
        *pla, options,
        [&rows](const PairFeatures&) {
          ++rows;
          return Status::OK();
        },
        nullptr);
    SEGDIFF_CHECK_OK(status);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_FeatureExtraction)->Arg(1)->Arg(8);

class TreeFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    path_ = std::string("/tmp/segdiff_bench_micro_tree.db");
    std::remove(path_.c_str());
    auto pager = Pager::Open(path_, true);
    SEGDIFF_CHECK(pager.ok());
    pager_ = std::move(pager).value();
    pool_ = std::make_unique<BufferPool>(pager_.get(), 8192);
  }
  void TearDown(const benchmark::State&) override {
    pool_.reset();
    pager_.reset();
    std::remove(path_.c_str());
  }

 protected:
  std::string path_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
};

BENCHMARK_F(TreeFixture, BM_BPlusTreeInsert)(benchmark::State& state) {
  auto tree = BPlusTree::Create(pool_.get(), 2);
  SEGDIFF_CHECK(tree.ok());
  Rng rng(7);
  uint64_t rid = 0;
  for (auto _ : state) {
    IndexKey key;
    key.vals[0] = rng.Uniform(0, 1e6);
    key.vals[1] = rng.Uniform(-100, 100);
    key.rid = rid++;
    SEGDIFF_CHECK_OK(tree->Insert(key));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

BENCHMARK_F(TreeFixture, BM_BPlusTreeSeek)(benchmark::State& state) {
  auto tree = BPlusTree::Create(pool_.get(), 2);
  SEGDIFF_CHECK(tree.ok());
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    IndexKey key;
    key.vals[0] = rng.Uniform(0, 1e6);
    key.vals[1] = rng.Uniform(-100, 100);
    key.rid = static_cast<uint64_t>(i);
    SEGDIFF_CHECK_OK(tree->Insert(key));
  }
  for (auto _ : state) {
    auto it = tree->Seek(IndexKey::LowerBound({rng.Uniform(0, 1e6)}));
    SEGDIFF_CHECK(it.ok());
    benchmark::DoNotOptimize(it->Valid());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

BENCHMARK_F(TreeFixture, BM_BufferPoolFetchHit)(benchmark::State& state) {
  auto handle = pool_->AllocatePinned();
  SEGDIFF_CHECK(handle.ok());
  const PageId id = handle->page_id();
  handle->Release();
  for (auto _ : state) {
    auto again = pool_->Fetch(id);
    SEGDIFF_CHECK(again.ok());
    benchmark::DoNotOptimize(again->data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_ModelGEvaluation(benchmark::State& state) {
  const Series& series = SharedWalk();
  ModelGEvaluator eval(series);
  Rng rng(3);
  const double lo = series.front().t;
  const double hi = series.back().t;
  for (auto _ : state) {
    auto v = eval.ValueAt(rng.Uniform(lo, hi));
    SEGDIFF_CHECK(v.ok());
    benchmark::DoNotOptimize(*v);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ModelGEvaluation);

void BM_PredicateMatch(benchmark::State& state) {
  Predicate predicate;
  predicate.And(0, CmpOp::kLe, 3600.0).And(1, CmpOp::kLe, -3.0);
  char record[40];
  Rng rng(5);
  EncodeDouble(record, rng.Uniform(0, 8 * 3600));
  EncodeDouble(record + 8, rng.Uniform(-10, 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(predicate.Matches(record));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PredicateMatch);

/// Batched page evaluation, as a heap-page scan runs it: per condition,
/// gather the column out of drop2-shaped records, then AND the compare
/// into the selection bitmap. First arg 0 = the portable scalar
/// compare, 1 = the runtime-dispatched variant (SSE2/AVX2 when
/// available). Second arg = rows per batch: 1021 (kMaxBatchRows for
/// 8-byte records) or 145, the most drop2-shaped records a heap page
/// holds ((8184 - 16) / 56), where the per-batch costs (bitmap init,
/// per-condition dispatch) weigh about 7x more per row.
void BM_ScanKernelBatch(benchmark::State& state) {
  Predicate predicate;
  predicate.And(0, CmpOp::kLe, 3600.0).And(1, CmpOp::kLe, -3.0);
  constexpr size_t kColumns = 7;  // drop2: dt1 dv1 dt2 dv2 t_d t_c t_b
  constexpr size_t kRecordBytes = kColumns * 8;
  const size_t rows = static_cast<size_t>(state.range(1));
  std::vector<char> records(rows * kRecordBytes);
  Rng rng(5);
  for (size_t i = 0; i < rows; ++i) {
    char* rec = records.data() + i * kRecordBytes;
    EncodeDouble(rec, rng.Uniform(0, 8 * 3600));
    EncodeDouble(rec + 8, rng.Uniform(-10, 2));
    for (size_t c = 2; c < kColumns; ++c) {
      EncodeDouble(rec + 8 * c, rng.Uniform(0, 8 * 3600));
    }
  }
  const ColumnCompareFn compare =
      state.range(0) == 0 ? ScalarColumnCompare() : ActiveColumnCompare();
  state.SetLabel(state.range(0) == 0 ? "scalar" : ActiveScanKernelName());
  uint64_t bitmap[kBatchBitmapWords];
  ColumnBatch vals;
  for (auto _ : state) {
    InitSelectionBitmap(rows, bitmap);
    for (const ColumnCondition& cond : predicate.conditions()) {
      GatherColumn(records.data(), kRecordBytes, rows, cond.column,
                   vals.vals);
      compare(vals.vals, rows, cond.op, cond.value, bitmap);
    }
    benchmark::DoNotOptimize(bitmap);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_ScanKernelBatch)->ArgsProduct({{0, 1}, {1021, 145}});

/// One full single-column segment encoded with EncodeColumnSegment,
/// decoded through ColumnCursor in 1024-value batches — the exact shape
/// the columnar SeqScan feeds to the selection-bitmap kernels.
struct EncodedColumn {
  ColumnDirEntry dir;
  std::string payload;  ///< the column's bytes plus the cursor's slack
  size_t rows = 0;
};

EncodedColumn EncodeOneColumn(const std::vector<double>& values,
                              ColumnEncoding expect) {
  EncodedColumn out;
  out.rows = values.size();
  std::vector<char> records(out.rows * 8);
  for (size_t r = 0; r < out.rows; ++r) {
    EncodeDouble(records.data() + r * 8, values[r]);
  }
  const std::string blob = EncodeColumnSegment(records.data(), 1, out.rows);
  SEGDIFF_CHECK(!blob.empty());
  // Single column: 16-byte header, one 32-byte dir entry, payload.
  const char* e = blob.data() + 16;
  out.dir.encoding = static_cast<ColumnEncoding>(e[0]);
  out.dir.scale_log10 = static_cast<uint8_t>(e[1]);
  std::memcpy(&out.dir.bit_width, e + 2, 2);
  std::memcpy(&out.dir.payload_bytes, e + 4, 4);
  std::memcpy(&out.dir.base, e + 8, 8);
  std::memcpy(&out.dir.min, e + 16, 8);
  std::memcpy(&out.dir.max, e + 24, 8);
  out.payload = blob.substr(16 + 32);
  out.payload.append(ColumnCursor::kPayloadSlackBytes, '\0');
  SEGDIFF_CHECK(out.dir.encoding == expect)
      << "workload no longer selects " << ColumnEncodingName(expect)
      << ", got " << ColumnEncodingName(out.dir.encoding);
  return out;
}

/// Decodes `col` whole per iteration, packed columns with the scalar
/// loop (arg 0) or with the active variant's decoder (arg 1; XOR has
/// one decoder, so both args run the same loop).
void DecodeColumn(benchmark::State& state, const EncodedColumn& col) {
  const PackedDecodeFn packed =
      state.range(0) == 0 ? nullptr : ActivePackedDecode();
  state.SetLabel(state.range(0) == 0 ? "scalar" : ActiveScanKernelName());
  alignas(64) static double batch[1024];
  for (auto _ : state) {
    ColumnCursor cursor(&col.dir, col.payload.data(), col.rows, packed);
    for (size_t pos = 0; pos < col.rows; pos += 1024) {
      SEGDIFF_CHECK(
          cursor.Decode(std::min<size_t>(1024, col.rows - pos), batch));
      benchmark::DoNotOptimize(batch[0]);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(col.rows));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(col.rows * 8));
}

/// Frame-of-reference decode: centi-grid sensor drops in a narrow band,
/// the shape of dv columns after compaction.
void BM_DecodeFOR(benchmark::State& state) {
  static const EncodedColumn* col = [] {
    Rng rng(7);
    std::vector<double> dv;
    dv.reserve(ColumnStore::kMaxSegmentRows);
    for (size_t i = 0; i < ColumnStore::kMaxSegmentRows; ++i) {
      double v = std::round(rng.Uniform(-8.0, 2.0) * 100.0) / 100.0;
      if (v == 0.0) v = 0.0;  // TryQuantize rejects -0.0
      dv.push_back(v);
    }
    return new EncodedColumn(
        EncodeOneColumn(dv, ColumnEncoding::kForPacked));
  }();
  DecodeColumn(state, *col);
}
BENCHMARK(BM_DecodeFOR)->Arg(0)->Arg(1);

/// Delta decode: whole-second segment times at an irregular cadence,
/// the shape of a feature table's time columns.
void BM_DecodeDelta(benchmark::State& state) {
  static const EncodedColumn* col = [] {
    Rng rng(9);
    std::vector<double> t;
    t.reserve(ColumnStore::kMaxSegmentRows);
    double now = 1.2e9;
    for (size_t i = 0; i < ColumnStore::kMaxSegmentRows; ++i) {
      now += std::round(rng.Uniform(30.0, 900.0));
      t.push_back(now);
    }
    return new EncodedColumn(
        EncodeOneColumn(t, ColumnEncoding::kDeltaPacked));
  }();
  DecodeColumn(state, *col);
}
BENCHMARK(BM_DecodeDelta)->Arg(0)->Arg(1);

/// Gorilla-style XOR decode: raw doubles off the decimal grid — the
/// encoding for unquantizable value columns where it saves at least
/// 1/32 over raw (this random walk saves about 12%).
void BM_DecodeXor(benchmark::State& state) {
  static const EncodedColumn* col = [] {
    Rng rng(11);
    std::vector<double> v;
    v.reserve(ColumnStore::kMaxSegmentRows);
    double walk = 20.0;
    for (size_t i = 0; i < ColumnStore::kMaxSegmentRows; ++i) {
      walk += rng.Uniform(-0.05, 0.05);
      v.push_back(walk);
    }
    return new EncodedColumn(EncodeOneColumn(v, ColumnEncoding::kXor));
  }();
  DecodeColumn(state, *col);
}
BENCHMARK(BM_DecodeXor)->Arg(0)->Arg(1);

}  // namespace
}  // namespace segdiff

// BENCHMARK_MAIN() with one extra spelling: --quick (used by the tier-1
// bench smoke) caps per-benchmark min time so the suite runs in seconds.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  static char min_time[] = "--benchmark_min_time=0.01";
  for (auto it = args.begin(); it != args.end();) {
    if (std::string(*it) == "--quick") {
      it = args.erase(it);
      args.push_back(min_time);
    } else {
      ++it;
    }
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
