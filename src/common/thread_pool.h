// Worker pool for intra-query and transect fan-out parallelism.
//
// A pool starts with N workers, may grow (never shrink) while in use,
// and is destroyed deterministically: the destructor stops intake,
// drains queued tasks, and joins every worker. ParallelFor is the
// primary API — it dynamically load-balances iterations over the
// workers *and* the calling thread, so it completes even when every
// worker is busy (nested ParallelFor from a worker thread is therefore
// safe, if rarely useful). Engines share one process-wide pool
// (SharedThreadPool); each fan-out caps its own width, so a pool grown
// by a wide caller never widens a narrow one.

#ifndef SEGDIFF_COMMON_THREAD_POOL_H_
#define SEGDIFF_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/governance.h"
#include "common/status.h"

namespace segdiff {

/// First-error-wins capture for fan-out work: every worker Records its
/// Status, and only the first non-OK one (by completion order) is kept.
/// This is the single error-propagation idiom for pool fan-outs —
/// ParallelFor is built on it, and ad-hoc fan-outs (Submit + Wait) should
/// use it too rather than hand-rolling a mutex + Status pair.
class FirstErrorCollector {
 public:
  /// Keeps `status` if it is the first non-OK status recorded.
  void Record(Status status) {
    if (status.ok()) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (first_.ok()) {
      first_ = std::move(status);
    }
  }

  bool failed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return !first_.ok();
  }

  /// OK if nothing failed, else the first recorded error.
  Status status() const {
    std::lock_guard<std::mutex> lock(mu_);
    return first_;
  }

 private:
  mutable std::mutex mu_;
  Status first_;
};

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding tasks and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const;

  /// Adds workers until the pool has at least `num_threads`. Existing
  /// workers and queued tasks are untouched, so this is safe while other
  /// threads run fan-outs on the pool.
  void Grow(size_t num_threads);

  /// Enqueues `task` for execution by some worker.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void Wait();

  /// Invokes `fn(i)` for every i in [0, n), spread across the workers and
  /// the calling thread. Blocks until all iterations finish. On error the
  /// remaining iterations are skipped and the first error (by completion
  /// order) is returned.
  Status ParallelFor(size_t n, const std::function<Status(size_t)>& fn);

  /// Governed variant: additionally checks `ctx` (may be null) before
  /// every iteration claim, so a cancelled or expired query stops
  /// fanning out new iterations immediately — already-running iterations
  /// still finish (they observe the same context at their own page-level
  /// check points and unwind through their Status path).
  Status ParallelFor(size_t n, const QueryContext* ctx,
                     const std::function<Status(size_t)>& fn);

  /// Width-capped governed variant: at most `width` iterations run at
  /// once — the calling thread plus up to `width - 1` workers — however
  /// many workers the pool has. 0 means no cap.
  Status ParallelFor(size_t n, size_t width, const QueryContext* ctx,
                     const std::function<Status(size_t)>& fn);

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::vector<std::thread> workers_;  ///< grows under mu_
  std::condition_variable task_ready_;   ///< workers wait here for tasks
  std::condition_variable all_idle_;     ///< Wait() waits here
  std::deque<std::function<void()>> tasks_;
  size_t in_flight_ = 0;  ///< tasks dequeued but not yet finished
  bool stop_ = false;
};

/// The process-wide pool every engine fans out on, grown to serve a
/// fan-out of `width` (`width - 1` workers; the caller participates).
/// It only ever grows, so concurrent callers never see it rebuilt;
/// callers pass their `width` to ParallelFor/ParallelMap to keep their
/// own degree of parallelism. Lives until process exit.
ThreadPool* SharedThreadPool(size_t width);

/// Fan-out with ordered result collection: invokes `fn(i, &(*out)[i])`
/// for every i in [0, n), each iteration writing only its own
/// pre-allocated slot — so no aggregation lock is needed and the
/// collected results are in index order no matter which worker finished
/// first (deterministic merges fold `*out` front to back afterwards).
/// At most `width` iterations run at once (0 = no cap). With a null
/// `pool` the iterations run serially on the calling thread (same
/// slots, same order); `ctx` may be null for ungoverned fan-outs.
/// On error the first failure (by completion order) is returned and
/// `*out` slots of unfinished iterations keep their default-constructed
/// value — callers must not use `*out` after a failure.
template <typename T, typename Fn>
Status ParallelMap(ThreadPool* pool, size_t width, size_t n,
                   const QueryContext* ctx, std::vector<T>* out,
                   const Fn& fn) {
  out->clear();
  out->resize(n);
  if (pool == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      if (ctx != nullptr) {
        Status status = ctx->Check();
        if (!status.ok()) {
          return status;
        }
      }
      Status status = fn(i, &(*out)[i]);
      if (!status.ok()) {
        return status;
      }
    }
    return Status::OK();
  }
  return pool->ParallelFor(
      n, width, ctx, [&](size_t i) -> Status { return fn(i, &(*out)[i]); });
}

}  // namespace segdiff

#endif  // SEGDIFF_COMMON_THREAD_POOL_H_
