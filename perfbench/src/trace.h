// Span tracing for the traced run.
//
// The benchmark records a span around each call it makes into a layer's
// public API (and the counting Vfs records one around every file
// operation). A span has a name, start and end (steady clock), the span
// that caused it, and the request it belongs to. Spans are buffered in
// memory per thread and analysed or written out when the run ends.
//
// Parentage: on the thread that opened it, a span's parent is the
// innermost open span. Work the program hands to its own threads (the
// transect fan-out, the WAL group-commit flusher) has no open span on
// that thread; it is attributed to the current request's root span
// while a request is open, and has no parent otherwise.
//
// Tracing is off unless enabled; a disabled ScopedSpan costs one atomic
// load.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = nullptr;  ///< string literal
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = none
  uint64_t request = 0;  ///< 0 = outside any request
  uint32_t thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Totals per span name.
struct SpanTotals {
  uint64_t count = 0;
  double total_ns = 0.0;
  /// Duration minus the part of it covered by child spans.
  double self_ns = 0.0;
};

class Tracer {
 public:
  static Tracer& Get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Drops every recorded span. Call only while no span is open.
  void Clear();

  /// All recorded spans, in no particular order. Call only while no
  /// span is open on any thread.
  std::vector<Span> Collect() const;

  /// Per-name count, total and self time over Collect().
  std::map<std::string, SpanTotals> Totals() const;

  /// Writes the spans as tab-separated values (one per line, times
  /// relative to the earliest start). Returns false on IO failure.
  bool WriteTsv(const std::string& path) const;

 private:
  friend class ScopedSpan;

  /// One thread's spans. The mutex is uncontended except while the
  /// analysis reads a buffer whose thread (e.g. a background flusher)
  /// may still be closing a span.
  struct ThreadBuffer {
    uint32_t thread = 0;
    std::mutex mu;
    std::vector<Span> spans;  ///< guarded by mu
  };

  ThreadBuffer* LocalBuffer();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  /// The open request and its root span (one client thread).
  std::atomic<uint64_t> request_{0};
  std::atomic<uint64_t> request_root_{0};

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  ///< guarded by mu_
};

/// Records one span over its lifetime (when tracing is enabled). With
/// `opens_request`, the span is a request root: every span recorded
/// until it closes, on any thread, carries its id as request id.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, bool opens_request = false);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  bool opens_request_ = false;
  uint64_t saved_current_ = 0;
  Span span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
