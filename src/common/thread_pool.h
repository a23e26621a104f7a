// Fan-out for intra-query and transect parallelism.
//
// ParallelFor is the one way code runs iterations concurrently. Width
// 0 or 1 is the serial path: every iteration runs on the calling
// thread, in index order, and the worker pool is never touched. Width
// >= 2 load-balances the iterations over the calling thread and at
// most `width - 1` workers of one process-wide pool, which is private
// to thread_pool.cc. A fan-out grows that pool only to the helpers it
// can use (`min(width, n) - 1`), the pool never shrinks, and each
// fan-out caps its own width, so a pool grown by a wide caller never
// widens a narrow one. The caller always runs iterations itself, so a
// fan-out completes even when every worker is busy.

#ifndef SEGDIFF_COMMON_THREAD_POOL_H_
#define SEGDIFF_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <mutex>
#include <vector>

#include "common/governance.h"
#include "common/status.h"

namespace segdiff {

/// First-error-wins capture for fan-out work: every worker Records its
/// Status, and only the first non-OK one (by completion order) is kept.
/// ParallelFor is built on it.
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

/// Invokes `fn(i)` for every i in [0, n) and blocks until all
/// iterations finish. `ctx` (may be null) is checked before every
/// iteration is claimed, so a cancelled or expired query starts no new
/// iteration; iterations already running observe the same context at
/// their own check points. On error the remaining iterations are
/// skipped and the first error (by completion order) is returned.
///
/// Width 0 or 1 runs every iteration on the caller in index order and
/// stops at the first error. Width >= 2 runs at most `width` iterations
/// at once: the caller plus up to `min(width, n) - 1` pool workers.
Status ParallelFor(size_t n, size_t width, const QueryContext* ctx,
                   const std::function<Status(size_t)>& fn);

/// Fan-out with ordered result collection: invokes `fn(i, &(*out)[i])`
/// for every i in [0, n) under ParallelFor's rules, each iteration
/// writing only its own pre-allocated slot, so no aggregation lock is
/// needed and the collected results are in index order whichever
/// iteration finished first (deterministic merges fold `*out` front to
/// back afterwards). On error the `*out` slots of unfinished iterations
/// keep their default-constructed value; callers must not use `*out`
/// after a failure.
template <typename T, typename Fn>
Status ParallelMap(size_t n, size_t width, const QueryContext* ctx,
                   std::vector<T>* out, const Fn& fn) {
  out->clear();
  out->resize(n);
  return ParallelFor(
      n, width, ctx, [&](size_t i) -> Status { return fn(i, &(*out)[i]); });
}

}  // namespace segdiff

#endif  // SEGDIFF_COMMON_THREAD_POOL_H_
