#include "common/governance.h"

#include <limits>
#include <string>

namespace segdiff {

double Deadline::remaining_millis() const {
  if (infinite()) {
    return std::numeric_limits<double>::infinity();
  }
  return std::chrono::duration<double, std::milli>(at_ - Clock::now())
      .count();
}

bool MemoryBudget::Charge(uint64_t bytes) {
  const uint64_t now = used_.fetch_add(bytes, std::memory_order_relaxed) +
                       bytes;
  if (limit_ != 0 && now > limit_) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
    breached_.store(true, std::memory_order_relaxed);
    return false;
  }
  return true;
}

Status MemoryBudget::Exceeded() const {
  return Status::ResourceExhausted(
      "result memory budget exceeded (max_result_bytes=" +
      std::to_string(limit_) + ")");
}

}  // namespace segdiff
