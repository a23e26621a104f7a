// Tests for ParallelFor, the one fan-out primitive: every index visited
// exactly once, error short-circuiting, the serial path at widths 0 and
// 1, completion while every worker is busy, nesting, per-call width caps
// on a pool a wider caller grew, and growth bounded by the work a
// fan-out has.

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/governance.h"
#include "common/thread_pool.h"

namespace segdiff {
namespace {

/// The calling process's thread count, or 0 where /proc is missing.
size_t ProcessThreads() {
  std::error_code error;
  std::filesystem::directory_iterator tasks("/proc/self/task", error);
  if (error) {
    return 0;
  }
  size_t count = 0;
  for (const auto& task : tasks) {
    (void)task;
    ++count;
  }
  return count;
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> visits(kN);
  Status status = ParallelFor(kN, 4, nullptr, [&](size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForDegenerateSizes) {
  std::atomic<int> count{0};
  auto body = [&](size_t) {
    ++count;
    return Status::OK();
  };
  EXPECT_TRUE(ParallelFor(0, 2, nullptr, body).ok());
  EXPECT_EQ(count.load(), 0);
  EXPECT_TRUE(ParallelFor(1, 2, nullptr, body).ok());
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, ParallelForPropagatesError) {
  std::atomic<int> executed{0};
  Status status = ParallelFor(1000, 4, nullptr, [&](size_t i) -> Status {
    ++executed;
    if (i == 17) {
      return Status::InvalidArgument("iteration 17 failed");
    }
    return Status::OK();
  });
  EXPECT_TRUE(status.IsInvalidArgument());
  // Cancellation skips the tail; it must never run anything twice.
  EXPECT_LE(executed.load(), 1000);
  // The pool stays usable after a failed loop.
  EXPECT_TRUE(
      ParallelFor(8, 4, nullptr, [](size_t) { return Status::OK(); }).ok());
}

// Widths 0 and 1 are the serial path: the caller runs every iteration
// in index order, stops at the first error, starts no thread, and with
// an already-cancelled context runs nothing.
TEST(ParallelForTest, SerialWidthsRunOnTheCallerInIndexOrder) {
  for (const size_t width : {size_t{0}, size_t{1}}) {
    const size_t threads_before = ProcessThreads();
    std::vector<size_t> order;
    bool off_caller = false;
    const std::thread::id caller = std::this_thread::get_id();
    Status status = ParallelFor(100, width, nullptr, [&](size_t i) {
      off_caller |= std::this_thread::get_id() != caller;
      order.push_back(i);
      return Status::OK();
    });
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_FALSE(off_caller) << "width " << width;
    ASSERT_EQ(order.size(), 100u);
    for (size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(order[i], i) << "width " << width;
    }
    EXPECT_EQ(ProcessThreads(), threads_before) << "width " << width;

    order.clear();
    status = ParallelFor(100, width, nullptr, [&](size_t i) -> Status {
      order.push_back(i);
      return i == 5 ? Status::IOError("iteration 5 failed") : Status::OK();
    });
    EXPECT_TRUE(status.IsIOError()) << "width " << width;
    EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4, 5}))
        << "width " << width;

    CancellationSource source;
    source.Cancel();
    QueryContext ctx;
    ctx.cancel = source.token();
    int ran = 0;
    status = ParallelFor(100, width, &ctx, [&](size_t) {
      ++ran;
      return Status::OK();
    });
    EXPECT_TRUE(status.IsCancelled()) << "width " << width;
    EXPECT_EQ(ran, 0) << "width " << width;
  }
}

// A fan-out grows the pool only to the helpers it can use: three
// iterations need at most two helpers, however wide the caller asks.
TEST(ParallelForTest, GrowsThePoolOnlyByTheWorkItHas) {
  // ThreadSanitizer starts a thread of its own with the process's first
  // thread; start and join one first so that one is not counted.
  std::thread([] {}).join();
  const size_t threads_before = ProcessThreads();
  if (threads_before == 0) {
    GTEST_SKIP() << "no /proc/self/task to count threads";
  }
  std::atomic<int> count{0};
  Status status = ParallelFor(3, 64, nullptr, [&](size_t) {
    ++count;
    return Status::OK();
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(count.load(), 3);
  EXPECT_LE(ProcessThreads(), threads_before + 2);
}

TEST(ThreadPoolTest, ParallelForRunsOnCallerWhenWorkersAreBusy) {
  // A second thread blocks a fan-out wider than any other in this file
  // on every worker the pool has, then this thread fans out: it must
  // complete through caller participation with no free worker.
  constexpr size_t kBlockerWidth = 8;
  std::atomic<size_t> blocked{0};
  std::atomic<bool> release{false};
  std::thread blocker([&] {
    Status status = ParallelFor(kBlockerWidth, kBlockerWidth, nullptr,
                                [&](size_t) {
                                  ++blocked;
                                  while (!release.load()) {
                                    std::this_thread::sleep_for(
                                        std::chrono::milliseconds(1));
                                  }
                                  return Status::OK();
                                });
    EXPECT_TRUE(status.ok()) << status.ToString();
  });
  while (blocked.load() < kBlockerWidth) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::atomic<int> count{0};
  Status status = ParallelFor(64, 4, nullptr, [&](size_t) {
    ++count;
    return Status::OK();
  });
  release = true;
  blocker.join();
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, NestedParallelFor) {
  std::atomic<int> count{0};
  Status status = ParallelFor(4, 3, nullptr, [&](size_t) {
    return ParallelFor(5, 3, nullptr, [&](size_t) {
      ++count;
      return Status::OK();
    });
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(count.load(), 20);
}

// The process-wide pool only grows, so a wide fan-out may grow it while
// a narrow one runs; every ParallelFor stays within its own width
// however many workers the pool has by then.
TEST(ThreadPoolTest, SharedPoolGrowsUnderLoadAndCapsEachFanOut) {
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  auto narrow = [&](size_t) {
    const int now = ++in_flight;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    --in_flight;
    return Status::OK();
  };
  auto wide = [](size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    return Status::OK();
  };
  std::thread grower(
      [&] { EXPECT_TRUE(ParallelFor(200, 8, nullptr, wide).ok()); });
  Status status = ParallelFor(200, 2, nullptr, narrow);
  grower.join();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_LE(peak.load(), 2);

  peak = 0;
  status = ParallelFor(200, 2, nullptr, narrow);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_LE(peak.load(), 2);
}

}  // namespace
}  // namespace segdiff
