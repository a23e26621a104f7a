#include "common/thread_pool.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"

namespace segdiff {

ThreadPool::ThreadPool(size_t num_threads) {
  SEGDIFF_CHECK_GE(num_threads, size_t{1});
  Grow(num_threads);
}

size_t ThreadPool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return workers_.size();
}

void ThreadPool::Grow(size_t num_threads) {
  std::lock_guard<std::mutex> lock(mu_);
  while (workers_.size() < num_threads) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool* SharedThreadPool(size_t width) {
  static ThreadPool pool(1);
  pool.Grow(width > 1 ? width - 1 : 1);
  return &pool;
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
      // Drain remaining tasks even when stopping, so Submit-then-destroy
      // still runs every task exactly once.
      if (tasks_.empty()) {
        return;
      }
      task = std::move(tasks_.front());
      tasks_.pop_front();
      ++in_flight_;
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (tasks_.empty() && in_flight_ == 0) {
        all_idle_.notify_all();
      }
    }
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  task_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_idle_.wait(lock, [this] { return tasks_.empty() && in_flight_ == 0; });
}

Status ThreadPool::ParallelFor(size_t n,
                               const std::function<Status(size_t)>& fn) {
  return ParallelFor(n, /*ctx=*/nullptr, fn);
}

Status ThreadPool::ParallelFor(size_t n, const QueryContext* ctx,
                               const std::function<Status(size_t)>& fn) {
  return ParallelFor(n, /*width=*/0, ctx, fn);
}

Status ThreadPool::ParallelFor(size_t n, size_t width,
                               const QueryContext* ctx,
                               const std::function<Status(size_t)>& fn) {
  if (n == 0) {
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
  // The calling thread runs iterations too, so `width - 1` helpers keep
  // at most `width` in flight.
  size_t helpers = std::min(n - 1, size());
  if (width > 0) {
    helpers = std::min(helpers, width - 1);
  }
  for (size_t i = 0; i < helpers; ++i) {
    Submit(run);
  }
  run();  // the calling thread participates, so progress never stalls
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&state] {
    return state->next >= state->n && state->running == 0;
  });
  return state->errors.status();
}

}  // namespace segdiff
