#include "common/thread_pool.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <memory>
#include <thread>

namespace segdiff {

namespace {

/// The process-wide workers behind ParallelFor. The pool only grows, so
/// concurrent fan-outs never see it rebuilt; it lives until process
/// exit, when its destructor runs what is still queued and joins.
class ThreadPool {
 public:
  ThreadPool() = default;
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Adds workers until the pool has at least `num_threads`. Existing
  /// workers and queued tasks are untouched, so this is safe while other
  /// threads fan out on the pool.
  void Grow(size_t num_threads);

  /// Enqueues `task` for execution by some worker.
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::vector<std::thread> workers_;   ///< grows under mu_
  std::condition_variable task_ready_;  ///< workers wait here for tasks
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
};

void ThreadPool::Grow(size_t num_threads) {
  std::lock_guard<std::mutex> lock(mu_);
  while (workers_.size() < num_threads) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      // Drain remaining tasks even when stopping, so every submitted
      // task runs exactly once.
      if (tasks_.empty()) {
        return;
      }
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  task_ready_.notify_one();
}

ThreadPool& SharedPool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace

Status ParallelFor(size_t n, size_t width, const QueryContext* ctx,
                   const std::function<Status(size_t)>& fn) {
  // At most `width` iterations run at once, and never more than there
  // are; the calling thread runs iterations too, so the pool supplies
  // one helper fewer.
  const size_t in_flight = std::min(width, n);
  if (in_flight <= 1) {
    for (size_t i = 0; i < n; ++i) {
      if (ctx != nullptr) {
        SEGDIFF_RETURN_IF_ERROR(ctx->Check());
      }
      SEGDIFF_RETURN_IF_ERROR(fn(i));
    }
    return Status::OK();
  }
  // All claim/completion bookkeeping lives behind one mutex: iterations
  // are coarse (a whole scan or partition each), so contention on the
  // claim path is irrelevant next to the work itself. Helpers enqueued
  // here may run after ParallelFor returns (once every iteration is
  // claimed there is nothing left for them); the shared_ptr keeps the
  // state — including the copied fn — alive for those stragglers, and a
  // failed claim never touches fn.
  struct ForState {
    std::function<Status(size_t)> fn;
    const QueryContext* ctx = nullptr;
    size_t n = 0;
    size_t next = 0;     ///< first unclaimed iteration (== n: none left)
    size_t running = 0;  ///< claimed iterations still executing
    FirstErrorCollector errors;
    std::mutex mu;
    std::condition_variable cv;
  };
  auto state = std::make_shared<ForState>();
  state->fn = fn;
  state->ctx = ctx;
  state->n = n;
  auto run = [state] {
    for (;;) {
      size_t i;
      {
        std::unique_lock<std::mutex> lock(state->mu);
        if (state->next >= state->n) {
          return;
        }
        i = state->next++;
        ++state->running;
      }
      // Claim-time governance: a cancelled/expired query stops spawning
      // iterations here; iterations already running hit the same context
      // inside fn and unwind on their own. The caller's ctx is only
      // dereferenced while this thread holds a claimed iteration
      // (running > 0), which ParallelFor's exit condition forbids after
      // it returns — a straggler helper that finds no work left bails
      // out above without ever touching the (possibly dead) context.
      Status status;
      if (state->ctx != nullptr) {
        status = state->ctx->Check();
      }
      if (status.ok()) {
        status = state->fn(i);
      }
      state->errors.Record(std::move(status));
      {
        std::unique_lock<std::mutex> lock(state->mu);
        if (state->errors.failed()) {
          state->next = state->n;  // cancel unclaimed iterations
        }
        --state->running;
        if (state->next >= state->n && state->running == 0) {
          state->cv.notify_all();
        }
      }
    }
  };
  const size_t helpers = in_flight - 1;
  ThreadPool& pool = SharedPool();
  pool.Grow(helpers);
  for (size_t i = 0; i < helpers; ++i) {
    pool.Submit(run);
  }
  run();  // the calling thread participates, so progress never stalls
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&state] {
    return state->next >= state->n && state->running == 0;
  });
  return state->errors.status();
}

}  // namespace segdiff
