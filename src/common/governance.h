// Query-governance primitives: deadlines, cooperative cancellation, and
// memory budgets.
//
// A production store serving concurrent traffic needs every long-running
// loop to be stoppable: a pathological corner query (tiny eps, huge T,
// near-full-table parallelogram overlap) must not pin workers and memory
// indefinitely. The contract here is *cooperative*, page-granular
// cancellation: executors call QueryContext::Check() once per heap page
// (and every kGovernanceCheckInterval B+-tree entries), so any query
// stops within one page of work and unwinds through the normal Status
// path — RAII page pins, partition-private sinks, and pool tasks all
// release cleanly.
//
// All types are cheap to copy/share and safe to use from every worker
// thread of one query.

#ifndef SEGDIFF_COMMON_GOVERNANCE_H_
#define SEGDIFF_COMMON_GOVERNANCE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "common/status.h"

namespace segdiff {

/// How often cooperative checks fire inside entry-at-a-time loops that
/// have no natural page boundary (B+-tree range walks): every N entries.
constexpr uint64_t kGovernanceCheckInterval = 128;

/// How often page-granular scans re-read the monotonic clock for the
/// deadline check: every N pages. The cancellation flag is still checked
/// on every page (one relaxed atomic load); only the comparatively
/// expensive clock read is amortized. N pages bounds deadline staleness
/// to a few microseconds of in-memory work or a handful of I/Os — far
/// inside the one-deadline-of-slack the CLI/SQL surfaces promise.
constexpr uint64_t kDeadlineCheckPageInterval = 8;

/// A monotonic-clock deadline. Default-constructed deadlines are
/// infinite (never expire), so ungoverned callers pay only a branch.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;  ///< infinite

  static Deadline Infinite() { return Deadline(); }

  /// Expires `ms` milliseconds from now (0 = already expired).
  static Deadline AfterMillis(uint64_t ms) {
    return Deadline(Clock::now() + std::chrono::milliseconds(ms));
  }

  /// The earlier of two deadlines (infinite is the identity).
  static Deadline Earlier(const Deadline& a, const Deadline& b) {
    return a.at_ <= b.at_ ? a : b;
  }

  bool infinite() const { return at_ == Clock::time_point::max(); }
  bool expired() const { return !infinite() && Clock::now() >= at_; }

  /// Milliseconds until expiry: +inf when infinite, <= 0 when expired.
  double remaining_millis() const;

  Clock::time_point time_point() const { return at_; }

 private:
  explicit Deadline(Clock::time_point at) : at_(at) {}

  Clock::time_point at_ = Clock::time_point::max();
};

/// Read side of a cancellation flag. Default-constructed tokens can
/// never be cancelled; real ones come from a CancellationSource and
/// share its atomic flag, so cancelling is visible to every thread of
/// the query immediately.
class CancellationToken {
 public:
  CancellationToken() = default;  ///< never cancelled

  bool cancelled() const {
    return flag_ != nullptr && flag_->load(std::memory_order_relaxed);
  }

 private:
  friend class CancellationSource;
  explicit CancellationToken(std::shared_ptr<const std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<const std::atomic<bool>> flag_;
};

/// Write side: the caller (CLI signal handler, server front-end, test)
/// holds the source and hands tokens to queries.
class CancellationSource {
 public:
  CancellationSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void Cancel() { flag_->store(true, std::memory_order_relaxed); }
  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }
  CancellationToken token() const { return CancellationToken(flag_); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Tracks bytes charged by result-set growth across all threads of one
/// query. limit 0 = unlimited (still tracks usage, so governance
/// counters can report peak bytes even for unbudgeted queries). Charges
/// are never released — a query's results only grow — so usage is also
/// the peak. A failed Charge latches `breached`, which the search
/// drivers translate into explicit truncation — never a silently
/// shortened result.
class MemoryBudget {
 public:
  MemoryBudget() = default;  ///< unlimited
  explicit MemoryBudget(uint64_t limit_bytes) : limit_(limit_bytes) {}

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// Adds `bytes`; false when the charge would exceed the limit (the
  /// charge is not applied, and `breached()` latches true).
  bool Charge(uint64_t bytes);

  uint64_t limit() const { return limit_; }
  bool unlimited() const { return limit_ == 0; }
  uint64_t used() const { return used_.load(std::memory_order_relaxed); }
  /// High-water mark of usage: usage itself, which never falls.
  uint64_t peak() const { return used(); }
  bool breached() const { return breached_.load(std::memory_order_relaxed); }

  /// The ResourceExhausted status a breach surfaces as.
  Status Exceeded() const;

 private:
  uint64_t limit_ = 0;  ///< 0 = unlimited
  std::atomic<uint64_t> used_{0};
  std::atomic<bool> breached_{false};
};

/// Everything a cooperative check point needs, bundled so executors
/// thread one pointer. Null context (the default everywhere) means
/// ungoverned: zero checks, zero overhead beyond a branch.
struct QueryContext {
  CancellationToken cancel;
  Deadline deadline;                   ///< infinite by default
  MemoryBudget* budget = nullptr;      ///< non-owning; may be null

  /// OK to keep going; Cancelled or DeadlineExceeded to stop. Called at
  /// page granularity — an atomic load plus (when a deadline is set) one
  /// clock read. Inline so the all-clear path costs a couple of loads.
  Status Check() const {
    if (cancel.cancelled()) {
      return Status::Cancelled("query cancelled by caller");
    }
    if (deadline.expired()) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::OK();
  }
};

}  // namespace segdiff

#endif  // SEGDIFF_COMMON_GOVERNANCE_H_
