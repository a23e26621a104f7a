#include "common/admission.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

namespace segdiff {

namespace {

size_t HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : static_cast<size_t>(hw);
}

}  // namespace

AdmissionController::AdmissionController(AdmissionOptions options)
    : opts_(options) {
  if (opts_.max_concurrent == 0) {
    opts_.max_concurrent = std::max<size_t>(4, 2 * HardwareThreads());
  }
  if (opts_.max_queue == 0) {
    opts_.max_queue = 2 * opts_.max_concurrent;
  }
  if (opts_.max_threads_per_query == 0) {
    opts_.max_threads_per_query = HardwareThreads();
  }
}

void AdmissionController::Ticket::Release() {
  if (controller_ != nullptr) {
    controller_->ReleaseSlot();
    controller_ = nullptr;
  }
}

Result<AdmissionController::Ticket> AdmissionController::Admit(
    const QueryContext& ctx) {
  SEGDIFF_RETURN_IF_ERROR(ctx.Check());

  std::unique_lock<std::mutex> lock(mu_);
  // Fast path: a free slot and nobody queued ahead of us.
  if (waiters_.empty() && active_ < opts_.max_concurrent) {
    ++active_;
    ++counters_.admitted;
    return Ticket(this);
  }

  if (waiters_.size() >= opts_.max_queue) {
    ++counters_.rejected;
    // Rough hint: every queued query ahead of the caller must drain
    // through a slot; assume one poll interval each.
    const uint64_t retry_ms =
        kAdmissionPollMillis *
        (1 + waiters_.size() / std::max<size_t>(1, opts_.max_concurrent));
    return Status::ResourceExhausted(
        "admission queue full (" + std::to_string(waiters_.size()) + "/" +
        std::to_string(opts_.max_queue) + " waiting, " +
        std::to_string(active_) + " running); retry after ~" +
        std::to_string(retry_ms) + " ms");
  }

  const uint64_t seq = next_seq_++;
  waiters_.insert(seq);
  ++counters_.queued;
  for (;;) {
    // FIFO: only the live waiter with the smallest seq may take a slot.
    // Abandoned waiters erase themselves, so head-of-line is always the
    // oldest query still willing to wait.
    if (*waiters_.begin() == seq && active_ < opts_.max_concurrent) {
      waiters_.erase(seq);
      ++active_;
      ++counters_.admitted;
      // The next-oldest waiter may now be head of line.
      slot_free_.notify_all();
      return Ticket(this);
    }
    Status live = ctx.Check();
    if (!live.ok()) {
      waiters_.erase(seq);
      slot_free_.notify_all();
      return live;
    }
    // Bounded sleep so cancellation/deadline is noticed even if no slot
    // ever frees (e.g. a stuck query holding the last slot).
    auto poll = std::chrono::milliseconds(kAdmissionPollMillis);
    if (!ctx.deadline.infinite()) {
      const auto until_deadline =
          ctx.deadline.time_point() - Deadline::Clock::now();
      if (until_deadline < poll) {
        poll = std::max(
            std::chrono::milliseconds(1),
            std::chrono::duration_cast<std::chrono::milliseconds>(
                until_deadline));
      }
    }
    slot_free_.wait_for(lock, poll);
  }
}

void AdmissionController::ReleaseSlot() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    --active_;
  }
  slot_free_.notify_all();
}

size_t AdmissionController::ClampThreads(size_t requested) const {
  return std::min(requested, opts_.max_threads_per_query);
}

void AdmissionController::RecordOutcome(const Status& status,
                                        uint64_t result_bytes_peak,
                                        bool truncated) {
  std::unique_lock<std::mutex> lock(mu_);
  if (status.IsCancelled()) {
    ++counters_.cancelled;
  } else if (status.IsDeadlineExceeded()) {
    ++counters_.deadline_exceeded;
  }
  if (truncated) {
    ++counters_.truncated;
  }
  counters_.peak_result_bytes =
      std::max(counters_.peak_result_bytes, result_bytes_peak);
}

GovernanceCounters AdmissionController::counters() const {
  std::unique_lock<std::mutex> lock(mu_);
  return counters_;
}

size_t AdmissionController::active() const {
  std::unique_lock<std::mutex> lock(mu_);
  return active_;
}

size_t AdmissionController::waiting() const {
  std::unique_lock<std::mutex> lock(mu_);
  return waiters_.size();
}

}  // namespace segdiff
