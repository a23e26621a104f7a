#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "common.h"

namespace perfbench {

namespace {

thread_local uint64_t t_current_span = 0;
thread_local void* t_buffer = nullptr;

}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::ThreadBuffer* Tracer::LocalBuffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->thread = static_cast<uint32_t>(buffers_.size());
    t_buffer = buffer.get();
    buffers_.push_back(std::move(buffer));
  }
  return static_cast<ThreadBuffer*>(t_buffer);
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    buffer->spans.clear();
    buffer->spans.shrink_to_fit();
  }
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  const std::vector<Span> spans = Collect();
  std::unordered_map<uint64_t, size_t> by_id;
  by_id.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;

  // Child intervals per parent, clipped to the parent's interval.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    auto it = by_id.find(s.parent);
    if (it == by_id.end()) continue;
    const Span& p = spans[it->second];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[it->second].emplace_back(lo, hi);
  }

  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    // Children on other threads may overlap: cover their union.
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = -1;
    for (const auto& [lo, hi] : kids) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    const double duration = static_cast<double>(s.end_ns - s.start_ns);
    SpanTotals& t = totals[s.name];
    ++t.count;
    t.total_ns += duration;
    t.self_ns += duration - static_cast<double>(covered);
  }
  return totals;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::vector<Span> spans = Collect();
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "id\tparent\trequest\tthread\tname\tstart_ns\tend_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu\t%llu\t%llu\t%u\t%s\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.thread, s.name,
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin));
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name, bool opens_request) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) {
    return;
  }
  active_ = true;
  opens_request_ = opens_request;
  span_.name = name;
  span_.id = tracer.next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_current_span != 0
                     ? t_current_span
                     : tracer.request_root_.load(std::memory_order_relaxed);
  if (opens_request) {
    tracer.request_.store(span_.id, std::memory_order_relaxed);
    tracer.request_root_.store(span_.id, std::memory_order_relaxed);
  }
  span_.request = tracer.request_.load(std::memory_order_relaxed);
  saved_current_ = t_current_span;
  t_current_span = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) {
    return;
  }
  span_.end_ns = NowNs();
  t_current_span = saved_current_;
  Tracer& tracer = Tracer::Get();
  if (opens_request_) {
    tracer.request_.store(0, std::memory_order_relaxed);
    tracer.request_root_.store(0, std::memory_order_relaxed);
  }
  Tracer::ThreadBuffer* buffer = tracer.LocalBuffer();
  span_.thread = buffer->thread;
  std::lock_guard<std::mutex> lock(buffer->mu);
  buffer->spans.push_back(span_);
}

}  // namespace perfbench
