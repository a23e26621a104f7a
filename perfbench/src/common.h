// Shared pieces of perfbench: run configuration and results,
// sample statistics, the seeded query mix, data generation, result
// digests, the Theorem 1 oracle check, and process/environment facts.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/result.h"
#include "feature/schema.h"
#include "segdiff/segdiff_index.h"
#include "segdiff/transect_index.h"
#include "trace.h"
#include "ts/series.h"

namespace perfbench {

using segdiff::PairId;
using segdiff::SearchKind;
using segdiff::Series;
using segdiff::Status;

/// Paper build defaults (Section 6): eps = 0.2 degC, w = 8 h.
constexpr double kEps = 0.2;
constexpr double kWindowS = 8.0 * 3600.0;
constexpr double kSampleIntervalS = 300.0;
constexpr double kDaySeconds = 86400.0;

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch for stores; emptied before and after
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

using MetricMap = std::map<std::string, Metric>;

/// What one workload run produced.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure messages
  MetricMap e2e;                    ///< end-to-end metrics
  MetricMap layer;                  ///< per-layer metrics (traced run)
  /// Workload sizes and sample counts, recorded with the result.
  std::map<std::string, double> info;

  /// Counts one failed operation (or gate check) with its reason.
  void Fail(const std::string& what);
  /// Counts one operation: failed when `status` is not OK.
  bool Check(const Status& status, const std::string& what);
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Calls `fn` inside a span named `name` (see ScopedSpan) and stores
/// its wall time in `*ms`; returns what `fn` returns.
template <typename Fn>
auto TimedCall(const char* name, bool opens_request, double* ms, Fn&& fn) {
  ScopedSpan span(name, opens_request);
  const int64_t t0 = NowNs();
  auto r = fn();
  *ms = static_cast<double>(NowNs() - t0) / 1e6;
  return r;
}

/// Timing samples with nearest-rank percentiles.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  double Sum() const;
  double Mean() const;
  /// p in [0, 100]; 0 when empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }

 private:
  std::vector<double> values_;
};

/// One drop or jump query of the search mix.
struct Query {
  int index = 0;  ///< 0..kQueryCount-1, identifies the distinct query
  SearchKind kind = SearchKind::kDrop;
  double T = 0.0;  ///< seconds
  double V = 0.0;  ///< signed: negative for drops, positive for jumps
  std::string Label() const;
};

/// The mix: T in {0.5, 1, 2, 4, 8} h x |V| in {1, 2, 3, 5} degC x
/// {drop, jump}. Next() deals the 40 distinct queries in blocks, each
/// block a fresh seeded permutation, so every run draws the same mix
/// and only the order depends on the seed.
class QueryMix {
 public:
  static constexpr int kQueryCount = 40;
  explicit QueryMix(uint64_t seed);
  static Query Get(int index);
  Query Next();

 private:
  std::mt19937_64 rng_;
  std::vector<int> order_;
  size_t pos_ = 0;
};

/// Timed searches of one closed-loop phase.
struct SearchLoop {
  Samples ms;               ///< latency of each successful search
  double seconds = 0.0;     ///< wall time of the whole loop
  std::vector<int> issued;  ///< query indices, in order
};

/// Closed loop, one client: issues `search(q)` back to back — the next
/// query from `mix` until `seconds` have passed, or exactly the queries
/// of `replay` when given. `search` times its own call into the
/// program (so result checks stay outside the sample) and returns the
/// latency in ms, or a negative value for a failed search (which it
/// records itself).
template <typename SearchFn>
SearchLoop RunSearchLoop(const SearchFn& search, QueryMix* mix,
                         double seconds, const std::vector<int>* replay) {
  SearchLoop loop;
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
  for (size_t i = 0;; ++i) {
    Query q;
    if (replay != nullptr) {
      if (i == replay->size()) break;
      q = QueryMix::Get((*replay)[i]);
    } else {
      if (NowNs() >= stop) break;
      q = mix->Next();
    }
    loop.issued.push_back(q.index);
    const double ms = search(q);
    if (ms >= 0.0) loop.ms.Add(ms);
  }
  loop.seconds = static_cast<double>(NowNs() - start) / 1e9;
  return loop;
}

/// One sensor's CAD series at 5-minute sampling, Hampel-filtered and
/// smoothed with robust LOESS as in MakeSmoothedBenchSeries.
segdiff::Result<Series> MakeSensorSeries(uint64_t seed, int days, int sensor);

/// Order-sensitive FNV-1a digest of a result set.
uint64_t Digest(const std::vector<PairId>& pairs);
uint64_t Digest(const std::vector<segdiff::TransectHit>& hits);

/// Options every store in the benchmark is opened with: the paper's
/// eps/w and the defaults of SegDiffOptions, with every knob the
/// environment could otherwise supply pinned explicitly.
segdiff::SegDiffOptions StoreOptions(bool wal);

/// Runs one search of the mix against a store.
segdiff::Result<std::vector<PairId>> RunSearch(segdiff::SegDiffIndex* index,
                                               const Query& q,
                                               size_t num_threads,
                                               segdiff::SearchStats* stats);

/// Theorem 1 against the Model-G oracle: every true event of `q` over
/// `series` is covered by a returned pair (no false negatives), and
/// every returned pair holds an event within 2 eps of V. Empty string
/// when it holds, otherwise the violation.
std::string CheckTheorem1(const Series& series,
                          const std::vector<PairId>& pairs, const Query& q);

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMib();

/// Size of a store: data file plus WAL sidecar (0 for missing files).
uint64_t StoreFileBytes(const std::string& db_path);

/// Removes SEGDIFF_* variables from the environment; returns the names.
std::vector<std::string> ClearSegdiffEnv();

/// File system type name of `path` (e.g. "ext4", "tmpfs").
std::string FileSystemType(const std::string& path);

/// Flushes the file system holding `dir` (syncfs), so writeback left
/// over from set-up or an earlier run does not land inside the timed
/// loop.
void SettleStorage(const std::string& dir);

/// Empties and recreates a directory.
void ResetDir(const std::string& dir);
void RemoveDir(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
