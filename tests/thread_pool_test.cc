// Tests for the worker pool behind parallel query execution: every
// index visited exactly once, error short-circuiting, Submit/Wait
// accounting, deterministic shutdown, nesting, and the shared pool's
// growth under load with per-call fan-out widths.

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace segdiff {
namespace {

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> visits(kN);
  Status status = pool.ParallelFor(kN, [&](size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForDegenerateSizes) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  EXPECT_TRUE(pool.ParallelFor(0, [&](size_t) {
                    ++count;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(count.load(), 0);
  EXPECT_TRUE(pool.ParallelFor(1, [&](size_t) {
                    ++count;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, ParallelForPropagatesError) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  Status status = pool.ParallelFor(1000, [&](size_t i) -> Status {
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
  EXPECT_TRUE(pool.ParallelFor(8, [](size_t) { return Status::OK(); }).ok());
}

TEST(ThreadPoolTest, ParallelForRunsOnCallerWhenWorkersAreBusy) {
  // Occupy the single worker, then ParallelFor from this thread: it must
  // complete via caller participation even with no free worker.
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  pool.Submit([&] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::atomic<int> count{0};
  Status status = pool.ParallelFor(64, [&](size_t) {
    ++count;
    return Status::OK();
  });
  release = true;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(count.load(), 64);
  pool.Wait();
}

TEST(ThreadPoolTest, NestedParallelFor) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  Status status = pool.ParallelFor(4, [&](size_t) {
    return pool.ParallelFor(5, [&](size_t) {
      ++count;
      return Status::OK();
    });
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPoolTest, SubmitAndWait) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 500; ++i) {
    pool.Submit([&] { ++count; });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 500);
  // Wait with nothing outstanding returns immediately.
  pool.Wait();
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  auto count = std::make_shared<std::atomic<int>>(0);
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([count] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        ++*count;
      });
    }
  }  // destructor joins after draining
  EXPECT_EQ(count->load(), 100);
}

// The process-wide pool only grows, so a wide caller may grow it while a
// narrow fan-out runs on it; every ParallelFor stays within its own
// width however many workers the pool has by then.
TEST(ThreadPoolTest, SharedPoolGrowsUnderLoadAndCapsEachFanOut) {
  ThreadPool* pool = SharedThreadPool(2);
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  auto body = [&](size_t) {
    const int now = ++in_flight;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    --in_flight;
    return Status::OK();
  };
  std::thread grower([] { SharedThreadPool(8); });
  Status status = pool->ParallelFor(200, 2, nullptr, body);
  grower.join();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(SharedThreadPool(2), pool);
  EXPECT_GE(pool->size(), 7u);
  EXPECT_LE(peak.load(), 2);

  peak = 0;
  status = pool->ParallelFor(200, 2, nullptr, body);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_LE(peak.load(), 2);
}

}  // namespace
}  // namespace segdiff
