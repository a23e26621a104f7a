// AdmissionController: bounds how many queries run (and wait) at once.
//
// A semaphore with a bounded FIFO wait queue. Queries that find a free
// slot start immediately; otherwise they join the queue and block until
// they reach the head and a slot frees. When the queue itself is full
// the query is refused *fast* with Status::ResourceExhausted and a
// retry-after hint — under overload, fast rejection beats unbounded
// queueing (the client can back off; a queued query just grows tail
// latency for everyone).
//
// Waiting is a poll-wait (<= kAdmissionPollMillis per sleep) so a queued
// query still notices its own cancellation or deadline and leaves the
// queue promptly; mid-queue abandonment is why waiters live in an
// ordered set rather than a plain counter — the head is always the
// smallest live sequence number, whoever gave up in between.
//
// The controller also clamps per-query worker fan-out (ClampThreads) and
// aggregates GovernanceCounters for the --stats surface.

#ifndef SEGDIFF_COMMON_ADMISSION_H_
#define SEGDIFF_COMMON_ADMISSION_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <set>

#include "common/governance.h"
#include "common/result.h"
#include "common/status.h"

namespace segdiff {

/// Upper bound on one sleep while queued for admission; the waiter
/// re-checks its cancellation token and deadline at least this often.
constexpr uint64_t kAdmissionPollMillis = 10;

struct AdmissionOptions {
  /// Queries allowed to execute concurrently. 0 = auto:
  /// max(4, 2 x hardware_concurrency).
  size_t max_concurrent = 0;
  /// Queries allowed to wait for a slot. 0 = auto: 2 x max_concurrent.
  size_t max_queue = 0;
  /// Per-query worker-thread clamp. 0 = auto: hardware_concurrency.
  size_t max_threads_per_query = 0;
};

/// Monotonic tallies of admission and query outcomes, surfaced next to
/// ScanStats under --stats. Snapshot via AdmissionController::counters().
struct GovernanceCounters {
  uint64_t admitted = 0;           ///< queries that got a slot
  uint64_t queued = 0;             ///< of those, how many had to wait
  uint64_t rejected = 0;           ///< refused: queue full
  uint64_t cancelled = 0;          ///< finished with Status::Cancelled
  uint64_t deadline_exceeded = 0;  ///< finished with DeadlineExceeded
  uint64_t truncated = 0;          ///< results cut by a memory budget
  uint64_t peak_result_bytes = 0;  ///< largest single-query result peak
};

class AdmissionController {
 public:
  /// RAII admission slot: releasing (destruction) frees the slot and
  /// wakes the head of the wait queue. Default-constructed tickets are
  /// empty (not admitted); moved-from tickets release nothing.
  class Ticket {
   public:
    Ticket() = default;
    ~Ticket() { Release(); }

    Ticket(Ticket&& other) noexcept : controller_(other.controller_) {
      other.controller_ = nullptr;
    }
    Ticket& operator=(Ticket&& other) noexcept {
      if (this != &other) {
        Release();
        controller_ = other.controller_;
        other.controller_ = nullptr;
      }
      return *this;
    }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;

    bool admitted() const { return controller_ != nullptr; }
    void Release();

   private:
    friend class AdmissionController;
    explicit Ticket(AdmissionController* controller)
        : controller_(controller) {}

    AdmissionController* controller_ = nullptr;
  };

  explicit AdmissionController(AdmissionOptions options = {});

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Blocks until a slot is free (FIFO among waiters) or fails:
  ///  - ResourceExhausted immediately when the wait queue is full,
  ///  - Cancelled / DeadlineExceeded if `ctx` fires while queued.
  Result<Ticket> Admit(const QueryContext& ctx);

  /// Caps a query's requested fan-out width at max_threads_per_query.
  /// 0 and 1 stay as they are: both mean serial (see ParallelFor).
  size_t ClampThreads(size_t requested) const;

  /// Folds a finished query's terminal status and memory high-water mark
  /// into the counters. Call exactly once per Admit, success or not.
  void RecordOutcome(const Status& status, uint64_t result_bytes_peak,
                     bool truncated);

  GovernanceCounters counters() const;
  size_t active() const;
  size_t waiting() const;

  /// The options after 0 = auto resolution.
  const AdmissionOptions& resolved_options() const { return opts_; }

 private:
  void ReleaseSlot();

  AdmissionOptions opts_;  ///< resolved: no zeros remain

  mutable std::mutex mu_;
  std::condition_variable slot_free_;
  size_t active_ = 0;
  uint64_t next_seq_ = 0;
  std::set<uint64_t> waiters_;  ///< live waiter seqs; head = *begin()
  GovernanceCounters counters_;
};

}  // namespace segdiff

#endif  // SEGDIFF_COMMON_ADMISSION_H_
