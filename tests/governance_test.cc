// Query governance end to end: deadline/cancellation primitives, the
// admission controller's FIFO semaphore semantics, cooperative
// cancellation inside the raw executors, the SegDiff/Exh governance
// shells (truncation contract, admission rejection, post-cancel store
// usability), the SQL statement timeout, and the cancel x fault matrix
// (a governed query racing injected IO failures must terminate cleanly
// and leave the store reusable).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>

#include <unistd.h>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_paths.h"

#include "common/admission.h"
#include "common/governance.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "query/executor.h"
#include "query/predicate.h"
#include "segdiff/exh_index.h"
#include "segdiff/segdiff_index.h"
#include "segdiff/transect_index.h"
#include "sql/engine.h"
#include "storage/db.h"
#include "storage/fault_vfs.h"
#include "storage/record.h"
#include "storage/wal.h"
#include "ts/generator.h"

namespace segdiff {
namespace {

// ---------------------------------------------------------------------
// Primitives

TEST(DeadlineTest, DefaultIsInfinite) {
  Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_millis(), 1e12);
}

TEST(DeadlineTest, ZeroMillisecondsIsExpired) {
  Deadline d = Deadline::AfterMillis(0);
  EXPECT_FALSE(d.infinite());
  EXPECT_TRUE(d.expired());
  EXPECT_LE(d.remaining_millis(), 0.0);
}

TEST(DeadlineTest, EarlierPicksTheTighterDeadline) {
  Deadline loose = Deadline::AfterMillis(60000);
  Deadline tight = Deadline::AfterMillis(1);
  EXPECT_EQ(Deadline::Earlier(loose, tight).time_point(),
            tight.time_point());
  EXPECT_EQ(Deadline::Earlier(tight, loose).time_point(),
            tight.time_point());
  // Infinite is the identity.
  EXPECT_EQ(Deadline::Earlier(Deadline::Infinite(), tight).time_point(),
            tight.time_point());
}

TEST(CancellationTest, DefaultTokenNeverCancels) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
}

TEST(CancellationTest, SourceCancelIsVisibleThroughEveryToken) {
  CancellationSource source;
  CancellationToken a = source.token();
  CancellationToken b = source.token();
  EXPECT_FALSE(a.cancelled());
  source.Cancel();
  EXPECT_TRUE(a.cancelled());
  EXPECT_TRUE(b.cancelled());
  EXPECT_TRUE(source.cancelled());
}

TEST(MemoryBudgetTest, ChargesWithinLimitAndTracksPeak) {
  MemoryBudget budget(100);
  EXPECT_TRUE(budget.Charge(60));
  EXPECT_TRUE(budget.Charge(40));
  EXPECT_EQ(budget.used(), 100u);
  EXPECT_EQ(budget.peak(), 100u);
  EXPECT_FALSE(budget.breached());
}

TEST(MemoryBudgetTest, BreachRollsBackAndLatches) {
  MemoryBudget budget(100);
  EXPECT_TRUE(budget.Charge(90));
  EXPECT_FALSE(budget.Charge(20));  // would exceed: not applied
  EXPECT_EQ(budget.used(), 90u);
  EXPECT_TRUE(budget.breached());
  EXPECT_TRUE(budget.Exceeded().IsResourceExhausted());
}

TEST(MemoryBudgetTest, UnlimitedStillTracksUsage) {
  MemoryBudget budget;
  EXPECT_TRUE(budget.unlimited());
  EXPECT_TRUE(budget.Charge(1u << 30));
  EXPECT_FALSE(budget.breached());
  EXPECT_EQ(budget.peak(), uint64_t{1} << 30);
}

TEST(QueryContextTest, CheckMapsStateToStatus) {
  QueryContext ok_ctx;
  EXPECT_TRUE(ok_ctx.Check().ok());

  CancellationSource source;
  QueryContext cancel_ctx;
  cancel_ctx.cancel = source.token();
  EXPECT_TRUE(cancel_ctx.Check().ok());
  source.Cancel();
  EXPECT_TRUE(cancel_ctx.Check().IsCancelled());

  QueryContext deadline_ctx;
  deadline_ctx.deadline = Deadline::AfterMillis(0);
  EXPECT_TRUE(deadline_ctx.Check().IsDeadlineExceeded());
}

TEST(FirstErrorCollectorTest, KeepsTheFirstError) {
  FirstErrorCollector errors;
  EXPECT_FALSE(errors.failed());
  errors.Record(Status::OK());
  EXPECT_FALSE(errors.failed());
  errors.Record(Status::IOError("first"));
  errors.Record(Status::Internal("second"));
  EXPECT_TRUE(errors.failed());
  EXPECT_TRUE(errors.status().IsIOError());
}

TEST(FirstErrorCollectorTest, SafeUnderConcurrentRecords) {
  FirstErrorCollector errors;
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&errors, i] {
      for (int j = 0; j < 100; ++j) {
        errors.Record(j % 2 == 0
                          ? Status::OK()
                          : Status::IOError("thread " + std::to_string(i)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(errors.failed());
  EXPECT_TRUE(errors.status().IsIOError());
}

// ---------------------------------------------------------------------
// AdmissionController

TEST(AdmissionControllerTest, UncontendedAdmitIsImmediate) {
  AdmissionOptions opts;
  opts.max_concurrent = 2;
  opts.max_queue = 2;
  AdmissionController controller(opts);
  QueryContext ctx;
  auto t1 = controller.Admit(ctx);
  auto t2 = controller.Admit(ctx);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  EXPECT_TRUE(t1->admitted());
  EXPECT_EQ(controller.active(), 2u);
  t1->Release();
  EXPECT_EQ(controller.active(), 1u);
  const GovernanceCounters counters = controller.counters();
  EXPECT_EQ(counters.admitted, 2u);
  EXPECT_EQ(counters.queued, 0u);
}

TEST(AdmissionControllerTest, QueueFullRejectsFastWithRetryHint) {
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  opts.max_queue = 1;
  AdmissionController controller(opts);
  QueryContext ctx;
  auto held = controller.Admit(ctx);
  ASSERT_TRUE(held.ok());

  // One waiter is allowed to queue...
  std::atomic<bool> waiter_admitted{false};
  std::thread waiter([&] {
    auto ticket = controller.Admit(ctx);
    EXPECT_TRUE(ticket.ok());
    waiter_admitted.store(true);
  });
  while (controller.waiting() == 0) {
    std::this_thread::yield();
  }

  // ...the next query is refused immediately, with a retry hint.
  auto rejected = controller.Admit(ctx);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsResourceExhausted());
  EXPECT_NE(rejected.status().ToString().find("retry"), std::string::npos);

  held->Release();  // frees the slot; the queued waiter gets it
  waiter.join();
  EXPECT_TRUE(waiter_admitted.load());
  const GovernanceCounters counters = controller.counters();
  EXPECT_EQ(counters.admitted, 2u);
  EXPECT_EQ(counters.queued, 1u);
  EXPECT_EQ(counters.rejected, 1u);
}

TEST(AdmissionControllerTest, QueuedWaiterHonoursCancellation) {
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  opts.max_queue = 4;
  AdmissionController controller(opts);
  QueryContext ctx;
  auto held = controller.Admit(ctx);
  ASSERT_TRUE(held.ok());

  CancellationSource source;
  QueryContext cancellable;
  cancellable.cancel = source.token();
  Status seen;
  std::thread waiter([&] {
    auto ticket = controller.Admit(cancellable);
    seen = ticket.status();
  });
  while (controller.waiting() == 0) {
    std::this_thread::yield();
  }
  source.Cancel();
  waiter.join();
  EXPECT_TRUE(seen.IsCancelled());
  EXPECT_EQ(controller.waiting(), 0u);  // the abandoned seq left the queue
}

TEST(AdmissionControllerTest, QueuedWaiterHonoursDeadline) {
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  opts.max_queue = 4;
  AdmissionController controller(opts);
  QueryContext ctx;
  auto held = controller.Admit(ctx);
  ASSERT_TRUE(held.ok());

  QueryContext deadline_ctx;
  deadline_ctx.deadline = Deadline::AfterMillis(30);
  auto ticket = controller.Admit(deadline_ctx);
  ASSERT_FALSE(ticket.ok());
  EXPECT_TRUE(ticket.status().IsDeadlineExceeded());
  EXPECT_EQ(controller.waiting(), 0u);
}

TEST(AdmissionControllerTest, ClampThreadsRespectsPerQueryCap) {
  AdmissionOptions opts;
  opts.max_concurrent = 4;
  opts.max_queue = 4;
  opts.max_threads_per_query = 3;
  AdmissionController controller(opts);
  EXPECT_EQ(controller.ClampThreads(8), 3u);
  EXPECT_EQ(controller.ClampThreads(2), 2u);
  EXPECT_EQ(controller.ClampThreads(1), 1u);
  EXPECT_EQ(controller.ClampThreads(0), 0u);  // 0 and 1 both mean serial
}

// ---------------------------------------------------------------------
// Raw executor cancellation

class ScanGovernanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("segdiff_scan_governance");
    std::remove(path_.c_str());
    auto db = Database::Open(path_, DatabaseOptions{});
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    auto schema = DoubleSchema({"dt", "dv"});
    ASSERT_TRUE(schema.ok());
    auto table = db_->CreateTable("f", *schema);
    ASSERT_TRUE(table.ok());
    table_ = *table;
    ASSERT_TRUE(table_->CreateIndex("ptdv", {"dt", "dv"}).ok());
    Rng rng(7);
    for (int i = 0; i < 4000; ++i) {
      ASSERT_TRUE(
          table_->InsertDoubles({rng.Uniform(0, 100), rng.Uniform(-10, 10)})
              .ok());
    }
  }
  void TearDown() override {
    db_.reset();
    std::remove(path_.c_str());
  }

  std::string path_;
  std::unique_ptr<Database> db_;
  Table* table_ = nullptr;
};

TEST_F(ScanGovernanceTest, SeqScanStopsWhenPreCancelled) {
  CancellationSource source;
  source.Cancel();
  QueryContext ctx;
  ctx.cancel = source.token();
  SeqScanOptions options;
  options.context = &ctx;
  uint64_t rows = 0;
  Status status = SeqScan(
      *table_, Predicate::True(),
      [&rows](const char*, RecordId) {
        ++rows;
        return Status::OK();
      },
      nullptr, options);
  EXPECT_TRUE(status.IsCancelled());
  EXPECT_EQ(rows, 0u);  // cancelled before the first page
}

TEST_F(ScanGovernanceTest, SeqScanStopsWithinOnePageOfMidScanCancel) {
  CancellationSource source;
  QueryContext ctx;
  ctx.cancel = source.token();
  SeqScanOptions options;
  options.context = &ctx;
  uint64_t rows = 0;
  Status status = SeqScan(
      *table_, Predicate::True(),
      [&](const char*, RecordId) {
        if (++rows == 100) {
          source.Cancel();
        }
        return Status::OK();
      },
      nullptr, options);
  EXPECT_TRUE(status.IsCancelled());
  EXPECT_LT(rows, 4000u);  // stopped long before the table ended
}

TEST_F(ScanGovernanceTest, SeqScanHonoursExpiredDeadline) {
  QueryContext ctx;
  ctx.deadline = Deadline::AfterMillis(0);
  SeqScanOptions options;
  options.context = &ctx;
  Status status = SeqScan(
      *table_, Predicate::True(),
      [](const char*, RecordId) { return Status::OK(); }, nullptr, options);
  EXPECT_TRUE(status.IsDeadlineExceeded());
}

TEST_F(ScanGovernanceTest, IndexScanHonoursCancellation) {
  CancellationSource source;
  source.Cancel();
  QueryContext ctx;
  ctx.cancel = source.token();
  IndexScanSpec spec;
  spec.context = &ctx;
  spec.index = table_->indexes().front().tree.get();
  IndexKey lower;
  for (int i = 0; i < kMaxIndexArity; ++i) {
    lower.vals[i] = -1e30;
  }
  lower.rid = 0;
  spec.lower = lower;
  spec.key_continue = [](const IndexKey&) { return true; };
  Status status = IndexScan(
      *table_, spec, Predicate::True(),
      [](const char*, RecordId) { return Status::OK(); }, nullptr);
  EXPECT_TRUE(status.IsCancelled());
}

TEST_F(ScanGovernanceTest, ParallelSeqScanPropagatesCancellation) {
  CancellationSource source;
  source.Cancel();
  QueryContext ctx;
  ctx.cancel = source.token();
  SeqScanOptions options;
  options.context = &ctx;
  Status status = ParallelSeqScan(
      *table_, Predicate::True(), 8,
      [](size_t) {
        return [](const char*, RecordId) { return Status::OK(); };
      },
      nullptr, options);
  EXPECT_TRUE(status.IsCancelled());
}

TEST_F(ScanGovernanceTest, GovernedParallelForReportsFirstError) {
  Status status = ParallelFor(64, 3, nullptr, [](size_t i) -> Status {
    if (i == 13) {
      return Status::IOError("injected");
    }
    return Status::OK();
  });
  EXPECT_TRUE(status.IsIOError());
}

// ---------------------------------------------------------------------
// SegDiff / Exh governance shells

class SegDiffGovernanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("segdiff_governance");
    std::remove(path_.c_str());
    CadGeneratorOptions gen;
    gen.num_days = 4;
    gen.cad_events_per_day = 2.0;
    auto data = GenerateCadSeries(gen);
    ASSERT_TRUE(data.ok());
    series_ = std::move(data->series);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  Result<std::unique_ptr<SegDiffIndex>> OpenStore(
      const SegDiffOptions& options) {
    return SegDiffIndex::Open(path_, options);
  }

  std::string path_;
  Series series_;
};

TEST_F(SegDiffGovernanceTest, ExpiredDeadlineFailsAndStoreStaysUsable) {
  SegDiffOptions options;
  options.eps = 0.2;
  options.window_s = 4 * 3600.0;
  auto store = OpenStore(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE((*store)->IngestSeries(series_).ok());

  SearchOptions governed;
  governed.deadline = Deadline::AfterMillis(0);
  auto failed = (*store)->SearchDrops(3600.0, -1.0, governed);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsDeadlineExceeded());
  EXPECT_GE((*store)->admission_controller()->counters().deadline_exceeded,
            1u);

  // The failed query released everything: an ungoverned search succeeds.
  auto baseline = (*store)->SearchDrops(3600.0, -1.0);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
}

TEST_F(SegDiffGovernanceTest, PreCancelledSearchReturnsCancelled) {
  SegDiffOptions options;
  options.window_s = 4 * 3600.0;
  auto store = OpenStore(options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->IngestSeries(series_).ok());

  CancellationSource source;
  source.Cancel();
  SearchOptions governed;
  governed.cancel = source.token();
  for (QueryMode mode :
       {QueryMode::kSeqScan, QueryMode::kIndexScan, QueryMode::kAuto}) {
    governed.mode = mode;
    auto result = (*store)->SearchDrops(3600.0, -1.0, governed);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsCancelled());
  }
  EXPECT_GE((*store)->admission_controller()->counters().cancelled, 3u);
  auto baseline = (*store)->SearchDrops(3600.0, -1.0);
  EXPECT_TRUE(baseline.ok());
}

TEST_F(SegDiffGovernanceTest, GovernedSearchMatchesUngovernedResults) {
  SegDiffOptions options;
  options.window_s = 4 * 3600.0;
  auto store = OpenStore(options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->IngestSeries(series_).ok());

  auto baseline = (*store)->SearchDrops(3600.0, -1.0);
  ASSERT_TRUE(baseline.ok());

  SearchOptions governed;
  governed.deadline = Deadline::AfterMillis(60000);
  governed.max_result_bytes = 64u << 20;
  SearchStats stats;
  auto result = (*store)->SearchDrops(3600.0, -1.0, governed, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, *baseline);
  EXPECT_FALSE(stats.truncated);
  EXPECT_GT(stats.result_bytes_peak, 0u);
}

TEST_F(SegDiffGovernanceTest, BudgetBreachTruncatesExplicitly) {
  SegDiffOptions options;
  options.window_s = 4 * 3600.0;
  auto store = OpenStore(options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->IngestSeries(series_).ok());

  // Inputs: the row store under the default per-corner scans, and its
  // compacted copy under kAuto (one pass per feature table).
  const std::string compact_path =
      UniqueTestPath("segdiff_governance", "_compact.db");
  std::remove(compact_path.c_str());
  ASSERT_TRUE((*store)->Compact(compact_path).ok());
  SegDiffOptions reopen = options;
  reopen.create_if_missing = false;
  auto compacted = SegDiffIndex::Open(compact_path, reopen);
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  struct Input {
    SegDiffIndex* index;
    QueryMode mode;
  };
  for (const Input& input : {Input{store->get(), QueryMode::kSeqScan},
                             Input{compacted->get(), QueryMode::kAuto}}) {
    SCOPED_TRACE(input.mode == QueryMode::kAuto ? "compacted, kAuto"
                                                : "row store, kSeqScan");
    // A permissive drop query returns plenty of pairs ungoverned...
    SearchOptions ungoverned;
    ungoverned.mode = input.mode;
    auto baseline = input.index->SearchDrops(4 * 3600.0, -0.5, ungoverned);
    ASSERT_TRUE(baseline.ok());
    ASSERT_GT(baseline->size(), 4u);

    // ...so a two-pair budget must breach. With a stats out-param the
    // search keeps the partial results and flags them.
    SearchOptions governed = ungoverned;
    governed.max_result_bytes = 2 * sizeof(PairId);
    SearchStats stats;
    auto truncated =
        input.index->SearchDrops(4 * 3600.0, -0.5, governed, &stats);
    ASSERT_TRUE(truncated.ok()) << truncated.status().ToString();
    EXPECT_TRUE(stats.truncated);
    EXPECT_LT(truncated->size(), baseline->size());
    EXPECT_GE(input.index->admission_controller()->counters().truncated, 1u);

    // Without one there is nowhere to surface the flag: explicit
    // failure, never a silently shortened result.
    auto failed = input.index->SearchDrops(4 * 3600.0, -0.5, governed);
    ASSERT_FALSE(failed.ok());
    EXPECT_TRUE(failed.status().IsResourceExhausted());
  }
  compacted->reset();
  std::remove(compact_path.c_str());
  std::remove(Wal::PathFor(compact_path).c_str());
}

TEST_F(SegDiffGovernanceTest, SaturatedAdmissionRejectsFast) {
  SegDiffOptions options;
  options.window_s = 4 * 3600.0;
  options.admission.max_concurrent = 1;
  options.admission.max_queue = 1;
  auto store = OpenStore(options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->IngestSeries(series_).ok());

  AdmissionController* controller = (*store)->admission_controller();
  QueryContext ctx;
  auto slot = controller->Admit(ctx);  // occupy the only slot
  ASSERT_TRUE(slot.ok());

  std::thread queued([&] {
    // Queues behind the held slot, then runs once the slot frees.
    auto result = (*store)->SearchDrops(3600.0, -1.0);
    EXPECT_TRUE(result.ok());
  });
  while (controller->waiting() == 0) {
    std::this_thread::yield();
  }

  auto rejected = (*store)->SearchDrops(3600.0, -1.0);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsResourceExhausted());
  EXPECT_GE(controller->counters().rejected, 1u);

  slot->Release();
  queued.join();
}

TEST_F(SegDiffGovernanceTest, ConcurrentGovernedSearchesAgree) {
  SegDiffOptions options;
  options.window_s = 4 * 3600.0;
  auto store = OpenStore(options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->IngestSeries(series_).ok());

  auto baseline = (*store)->SearchDrops(3600.0, -1.0);
  ASSERT_TRUE(baseline.ok());

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&store, &baseline, &ok_count, i] {
      SearchOptions governed;
      governed.deadline = Deadline::AfterMillis(60000);
      governed.num_threads = (i % 2 == 0) ? 2 : 0;
      auto result = (*store)->SearchDrops(3600.0, -1.0, governed);
      if (result.ok() && *result == *baseline) {
        ++ok_count;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), kThreads);
}

TEST_F(SegDiffGovernanceTest, TransectSharesOneDeadlineAcrossSensors) {
  const std::string dir = UniqueTestPath("segdiff_transect_governance");
  // A transect store is a directory; scrub any leftovers from a previous
  // (possibly crashed) run so ingest starts from an empty store.
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  SegDiffOptions options;
  options.window_s = 4 * 3600.0;
  auto transect = TransectIndex::Open(dir, 3, TransectOptions{options});
  ASSERT_TRUE(transect.ok()) << transect.status().ToString();
  for (int s = 0; s < 3; ++s) {
    ASSERT_TRUE((*transect)->IngestSensorSeries(s, series_).ok());
  }

  SearchOptions governed;
  governed.deadline = Deadline::AfterMillis(0);
  auto failed = (*transect)->SearchDrops(3600.0, -1.0, governed);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsDeadlineExceeded());

  auto baseline = (*transect)->SearchDrops(3600.0, -1.0);
  EXPECT_TRUE(baseline.ok());
}

TEST(ExhGovernanceTest, ShellAppliesDeadlineAndTruncationContract) {
  const std::string path = UniqueTestPath("segdiff_exh_governance");
  std::remove(path.c_str());
  CadGeneratorOptions gen;
  gen.num_days = 1;
  auto data = GenerateCadSeries(gen);
  ASSERT_TRUE(data.ok());

  ExhOptions options;
  options.window_s = 2 * 3600.0;
  auto store = ExhIndex::Open(path, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE((*store)->IngestSeries(data->series).ok());

  SearchOptions expired;
  expired.deadline = Deadline::AfterMillis(0);
  auto failed = (*store)->SearchDrops(3600.0, -1.0, expired);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsDeadlineExceeded());

  auto baseline = (*store)->SearchDrops(3600.0, -0.1);
  ASSERT_TRUE(baseline.ok());
  ASSERT_GT(baseline->size(), 2u);

  SearchOptions budgeted;
  budgeted.max_result_bytes = sizeof(ExhEvent);
  SearchStats stats;
  auto truncated = (*store)->SearchDrops(3600.0, -0.1, budgeted, &stats);
  ASSERT_TRUE(truncated.ok()) << truncated.status().ToString();
  EXPECT_TRUE(stats.truncated);
  EXPECT_LT(truncated->size(), baseline->size());

  auto no_stats = (*store)->SearchDrops(3600.0, -0.1, budgeted);
  ASSERT_FALSE(no_stats.ok());
  EXPECT_TRUE(no_stats.status().IsResourceExhausted());

  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// SQL statement timeout

TEST(SqlGovernanceTest, SetStatementTimeoutIsParsedAndApplied) {
  const std::string path = UniqueTestPath("segdiff_sql_governance");
  std::remove(path.c_str());
  auto db = Database::Open(path, DatabaseOptions{});
  ASSERT_TRUE(db.ok());
  sql::Engine engine(db->get());

  ASSERT_TRUE((*db)->CreateTable("f", *DoubleSchema({"dt", "dv"})).ok());
  ASSERT_TRUE(engine.Execute("INSERT INTO f VALUES (1, -2)").ok());

  EXPECT_TRUE(engine.Execute("SET statement_timeout_ms = 250;").ok());
  EXPECT_EQ(engine.statement_timeout_ms(), 250u);
  EXPECT_TRUE(engine.Execute("set STATEMENT_TIMEOUT_MS = 0").ok());
  EXPECT_EQ(engine.statement_timeout_ms(), 0u);
  // Malformed variants fall through to the SQL parser and fail there.
  EXPECT_FALSE(engine.Execute("SET statement_timeout_ms = abc").ok());

  // A generous timeout leaves results unchanged.
  engine.set_statement_timeout_ms(60000);
  auto result = engine.Execute("SELECT * FROM f WHERE dv <= 0");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 1u);

  db->reset();
  std::remove(path.c_str());
}

TEST(SqlGovernanceTest, InjectedContextCancelsStatements) {
  const std::string path = UniqueTestPath("segdiff_sql_cancel");
  std::remove(path.c_str());
  auto db = Database::Open(path, DatabaseOptions{});
  ASSERT_TRUE(db.ok());
  sql::Engine engine(db->get());
  ASSERT_TRUE((*db)->CreateTable("f", *DoubleSchema({"dt", "dv"})).ok());
  ASSERT_TRUE(engine.Execute("INSERT INTO f VALUES (1, -2)").ok());

  CancellationSource source;
  QueryContext ctx;
  ctx.cancel = source.token();
  engine.set_query_context(ctx);
  source.Cancel();
  auto cancelled = engine.Execute("SELECT * FROM f WHERE dv <= 0");
  ASSERT_FALSE(cancelled.ok());
  EXPECT_TRUE(cancelled.status().IsCancelled());

  // Deterministic deadline expiry through the injected context.
  QueryContext expired;
  expired.deadline = Deadline::AfterMillis(0);
  engine.set_query_context(expired);
  auto timed_out = engine.Execute("SELECT * FROM f WHERE dv <= 0");
  ASSERT_FALSE(timed_out.ok());
  EXPECT_TRUE(timed_out.status().IsDeadlineExceeded());

  engine.set_query_context(QueryContext{});
  EXPECT_TRUE(engine.Execute("SELECT * FROM f WHERE dv <= 0").ok());

  db->reset();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Cancel x fault-injection matrix

class CancelFaultMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("segdiff_cancel_fault");
    std::remove(path_.c_str());
    CadGeneratorOptions gen;
    gen.num_days = 2;
    gen.cad_events_per_day = 2.0;
    auto data = GenerateCadSeries(gen);
    ASSERT_TRUE(data.ok());
    series_ = std::move(data->series);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  Series series_;
};

TEST_F(CancelFaultMatrixTest, GovernedSearchSurvivesInjectedReadFailures) {
  FaultInjectionVfs fault_vfs;
  SegDiffOptions options;
  options.window_s = 4 * 3600.0;
  options.vfs = &fault_vfs;
  auto store = SegDiffIndex::Open(path_, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE((*store)->IngestSeries(series_).ok());
  ASSERT_TRUE((*store)->Checkpoint().ok());

  auto reference = (*store)->SearchDrops(3600.0, -1.0);
  ASSERT_TRUE(reference.ok());

  // Matrix: {pre-cancelled, not cancelled} x {reads fail immediately,
  // after 5, after 50}. Every combination must terminate with a clean
  // terminal status and leave the store reusable after Reset().
  for (const bool pre_cancel : {true, false}) {
    for (const int64_t fail_after : {int64_t{0}, int64_t{5}, int64_t{50}}) {
      SCOPED_TRACE("pre_cancel=" + std::to_string(pre_cancel) +
                   " fail_after=" + std::to_string(fail_after));
      ASSERT_TRUE((*store)->DropCaches().ok());  // force real page reads
      fault_vfs.FailAfterReads(fail_after);

      CancellationSource source;
      if (pre_cancel) {
        source.Cancel();
      }
      SearchOptions governed;
      governed.cancel = source.token();
      governed.deadline = Deadline::AfterMillis(30000);
      auto result = (*store)->SearchDrops(3600.0, -1.0, governed);
      if (pre_cancel) {
        // Cancellation is checked before any scan touches storage.
        ASSERT_FALSE(result.ok());
        EXPECT_TRUE(result.status().IsCancelled());
      } else if (!result.ok()) {
        // The injected fault won the race: it must surface as the
        // injected IOError (possibly quarantine-wrapped), nothing else.
        EXPECT_TRUE(result.status().IsIOError() ||
                    result.status().IsCorruption())
            << result.status().ToString();
      }

      // The failure left no pinned pages or poisoned state behind: with
      // faults cleared, the same query returns the reference results.
      fault_vfs.FailAfterReads(-1);
      auto healed = (*store)->SearchDrops(3600.0, -1.0);
      ASSERT_TRUE(healed.ok()) << healed.status().ToString();
      EXPECT_EQ(*healed, *reference);
    }
  }
}

TEST_F(CancelFaultMatrixTest, ParallelGovernedSearchUnderFaults) {
  FaultInjectionVfs fault_vfs;
  SegDiffOptions options;
  options.window_s = 4 * 3600.0;
  options.vfs = &fault_vfs;
  auto store = SegDiffIndex::Open(path_, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->IngestSeries(series_).ok());
  auto reference = (*store)->SearchDrops(3600.0, -1.0);
  ASSERT_TRUE(reference.ok());

  ASSERT_TRUE((*store)->DropCaches().ok());
  fault_vfs.FailAfterReads(10);
  SearchOptions governed;
  governed.num_threads = 4;
  governed.fused_scan = true;
  auto result = (*store)->SearchDrops(3600.0, -1.0, governed);
  if (!result.ok()) {
    EXPECT_TRUE(result.status().IsIOError() ||
                result.status().IsCorruption())
        << result.status().ToString();
  }

  fault_vfs.FailAfterReads(-1);
  auto healed = (*store)->SearchDrops(3600.0, -1.0);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(*healed, *reference);
}

TEST(FaultVfsConcurrencyTest, CountdownIsExactUnderContention) {
  FaultInjectionVfs fault_vfs;
  const std::string path = UniqueTestPath("segdiff_fault_concurrency");
  std::remove(path.c_str());
  auto file = fault_vfs.OpenFile(path, /*create=*/true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Write(0, "0123456789abcdef", 16).ok());

  // 8 threads race 400 reads through a countdown of 100: exactly 100
  // succeed no matter the interleaving (the CAS loop hands out slots).
  fault_vfs.FailAfterReads(100);
  std::atomic<int> successes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      char buf[1];
      for (int i = 0; i < 50; ++i) {
        if ((*file)->Read(0, 1, buf).ok()) {
          ++successes;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(successes.load(), 100);
  const FaultInjectionVfs::Counters counters = fault_vfs.counters();
  EXPECT_EQ(counters.reads, 100u);
  EXPECT_EQ(counters.injected_failures, 300u);

  file->reset();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace segdiff
