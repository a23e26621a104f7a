#include "common.h"

#include <fcntl.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "benchutil/workload.h"
#include "segdiff/naive.h"
#include "segdiff/verify.h"
#include "ts/smoothing.h"

extern char** environ;

namespace perfbench {

namespace {

constexpr size_t kMaxErrorMessages = 8;

constexpr double kQueryHours[] = {0.5, 1.0, 2.0, 4.0, 8.0};
constexpr double kQueryDegrees[] = {1.0, 2.0, 3.0, 5.0};

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

constexpr uint64_t kFnvBasis = 14695981039346656037ull;

uint64_t FnvPair(uint64_t h, const PairId& p) {
  const double fields[4] = {p.t_d, p.t_c, p.t_b, p.t_a};
  return Fnv(h, fields, sizeof(fields));
}

}  // namespace

void RunResult::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < kMaxErrorMessages) {
    errors.push_back(what);
  }
}

bool RunResult::Check(const Status& status, const std::string& what) {
  ++attempted;
  if (status.ok()) {
    return true;
  }
  Fail(what + ": " + status.ToString());
  return false;
}

double Samples::Sum() const {
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum;
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

double Samples::Percentile(double p) const {
  if (values_.empty()) {
    return 0.0;
  }
  std::vector<double> sorted = values_;
  // Nearest rank: the smallest value with at least p% of samples <= it.
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(sorted.begin(), sorted.begin() + (rank - 1), sorted.end());
  return sorted[rank - 1];
}

std::string Query::Label() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s T=%gh V=%+g",
                kind == SearchKind::kDrop ? "drop" : "jump", T / 3600.0, V);
  return buf;
}

QueryMix::QueryMix(uint64_t seed) : rng_(seed ^ 0x5eed0f9e1e5ull) {
  order_.resize(kQueryCount);
  pos_ = order_.size();
}

Query QueryMix::Get(int index) {
  Query q;
  q.index = index;
  const int hours = index % 5;
  const int degrees = (index / 5) % 4;
  q.kind = index / 20 == 0 ? SearchKind::kDrop : SearchKind::kJump;
  q.T = kQueryHours[hours] * 3600.0;
  q.V = q.kind == SearchKind::kDrop ? -kQueryDegrees[degrees]
                                    : kQueryDegrees[degrees];
  return q;
}

Query QueryMix::Next() {
  if (pos_ == order_.size()) {
    for (int i = 0; i < kQueryCount; ++i) order_[i] = i;
    std::shuffle(order_.begin(), order_.end(), rng_);
    pos_ = 0;
  }
  return Get(order_[pos_++]);
}

segdiff::Result<Series> MakeSensorSeries(uint64_t seed, int days, int sensor) {
  segdiff::WorkloadConfig config;
  config.seed = seed;
  config.num_days = days;
  config.sample_interval_s = kSampleIntervalS;
  segdiff::CadGeneratorOptions gen = segdiff::MakeGeneratorOptions(config);
  gen.sensor_index = sensor;
  SEGDIFF_ASSIGN_OR_RETURN(segdiff::CadSeries raw,
                           segdiff::GenerateCadSeries(gen));
  SEGDIFF_ASSIGN_OR_RETURN(
      Series filtered,
      segdiff::HampelFilter(raw.series, segdiff::HampelOptions{}));
  segdiff::LoessOptions loess;
  loess.bandwidth_s = config.loess_bandwidth_s;
  loess.robust_iterations = 1;
  return segdiff::RobustLoess(filtered, loess);
}

uint64_t Digest(const std::vector<PairId>& pairs) {
  uint64_t h = kFnvBasis;
  for (const PairId& p : pairs) h = FnvPair(h, p);
  return h;
}

uint64_t Digest(const std::vector<segdiff::TransectHit>& hits) {
  uint64_t h = kFnvBasis;
  for (const segdiff::TransectHit& hit : hits) {
    h = Fnv(h, &hit.sensor, sizeof(hit.sensor));
    h = FnvPair(h, hit.pair);
  }
  return h;
}

segdiff::SegDiffOptions StoreOptions(bool wal) {
  segdiff::SegDiffOptions options;
  options.eps = kEps;
  options.window_s = kWindowS;
  options.wal = wal;
  // The documented default, pinned: -1 would read the environment.
  options.wal_group_commit_ms = 1;
  options.sim_seq_read_ns = 0;
  options.sim_random_read_ns = 0;
  return options;
}

segdiff::Result<std::vector<PairId>> RunSearch(segdiff::SegDiffIndex* index,
                                               const Query& q,
                                               size_t num_threads,
                                               segdiff::SearchStats* stats) {
  segdiff::SearchOptions options;
  options.mode = segdiff::QueryMode::kAuto;
  options.num_threads = num_threads;
  return q.kind == SearchKind::kDrop
             ? index->SearchDrops(q.T, q.V, options, stats)
             : index->SearchJumps(q.T, q.V, options, stats);
}

std::string CheckTheorem1(const Series& series,
                          const std::vector<PairId>& pairs, const Query& q) {
  segdiff::NaiveSearcher naive(series);
  const std::vector<segdiff::NaiveEvent> events =
      q.kind == SearchKind::kDrop ? naive.SearchDrops(q.T, q.V)
                                  : naive.SearchJumps(q.T, q.V);
  const segdiff::CoverageReport coverage =
      segdiff::CheckCoverage(events, pairs);
  if (!coverage.AllCovered()) {
    return q.Label() + ": " + std::to_string(coverage.events - coverage.covered) +
           " of " + std::to_string(coverage.events) +
           " true events not covered (false negatives)";
  }
  // The per-pair tolerance check dominates the gate; split the pairs
  // across the machine's cores.
  const size_t workers = std::clamp<size_t>(
      std::thread::hardware_concurrency(), 1, 8);
  const size_t chunk = (pairs.size() + workers - 1) / workers;
  std::vector<std::string> verdicts(workers);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < workers && w * chunk < pairs.size(); ++w) {
    threads.emplace_back([&, w] {
      const auto begin = pairs.begin() + w * chunk;
      const std::vector<PairId> slice(
          begin, begin + std::min(chunk, pairs.size() - w * chunk));
      auto violations = segdiff::FindToleranceViolations(series, slice, q.T,
                                                         q.V, kEps, q.kind);
      if (!violations.ok()) {
        verdicts[w] = q.Label() + ": tolerance check failed: " +
                      violations.status().ToString();
      } else if (!violations->empty()) {
        verdicts[w] = q.Label() + ": " + std::to_string(violations->size()) +
                      " returned pairs outside 2 eps of V";
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& verdict : verdicts) {
    if (!verdict.empty()) return verdict;
  }
  return "";
}

double PeakRssMib() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%llu", &kb);
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

uint64_t StoreFileBytes(const std::string& db_path) {
  uint64_t total = 0;
  for (const std::string& path : {db_path, db_path + ".wal"}) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    if (!ec) total += size;
  }
  return total;
}

std::vector<std::string> ClearSegdiffEnv() {
  std::vector<std::string> names;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string entry(*e);
    if (entry.rfind("SEGDIFF_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& name : names) {
    unsetenv(name.c_str());
  }
  return names;
}

std::string FileSystemType(const std::string& path) {
  struct statfs info;
  if (statfs(path.c_str(), &info) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x2FC12FC1: return "zfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return buf;
    }
  }
}

void SettleStorage(const std::string& dir) {
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  syncfs(fd);
  close(fd);
}

void ResetDir(const std::string& dir) {
  RemoveDir(dir);
  std::filesystem::create_directories(dir);
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace perfbench
