// live_ingest: writes beside reads on the row path.
//
// One sensor, row format, default SegDiffOptions except that the WAL is
// off (4096-page pool; see perfbench/README.md for why). Each round
// appends one day of observations one call at a time, acknowledges them
// with FlushPending, then issues one search from the mix. The run
// covers one year whatever the clock says, so every run crosses from
// the fits-in-pool regime into the one where the store outgrows its
// buffer pool (about halfway through). The traced run measures the WAL
// layer on a replay of the same year with the WAL on.

#include <algorithm>
#include <cmath>
#include <memory>

#include "counting_vfs.h"
#include "layers.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kDays = 365;

/// One timed search: which query, over which prefix, with what result.
struct TimedResult {
  int query = 0;
  double prefix_end = 0.0;  ///< time stamp of the last acknowledged sample
  uint64_t digest = 0;
};

struct YearRun {
  IngestTimings ingest;
  Samples search_ms;
  SearchTotals totals;
  double seconds = 0.0;
  std::vector<TimedResult> timed;
};

/// The closed loop: a day of appends, one flush, one search — for
/// every day of `series`.
void RunYear(segdiff::SegDiffIndex* index, const Series& series,
             QueryMix* mix, YearRun* run, RunResult* result) {
  const auto& samples = series.samples();
  const int64_t start = NowNs();
  size_t i = 0;
  while (i < samples.size()) {
    const double day_end =
        (std::floor(samples[i].t / kDaySeconds) + 1.0) * kDaySeconds;
    size_t j = i;
    while (j < samples.size() && samples[j].t < day_end) ++j;
    const std::vector<segdiff::Sample> day(samples.begin() + i,
                                           samples.begin() + j);
    if (!StreamDays(index, day, &run->ingest, result).ok()) break;
    const double prefix_end = samples[j - 1].t;
    i = j;

    const Query q = mix->Next();
    segdiff::SearchStats stats;
    double ms = 0.0;
    auto r = TimedCall("segdiff.search", /*opens_request=*/true, &ms,
                       [&] { return RunSearch(index, q, 0, &stats); });
    if (!result->Check(r.status(), q.Label())) continue;
    run->search_ms.Add(ms);
    run->totals.Add(stats);
    run->timed.push_back({q.index, prefix_end, Digest(*r)});
  }
  run->seconds = static_cast<double>(NowNs() - start) / 1e9;
}

void AddYearMetrics(const YearRun& run, MetricMap* e2e) {
  AddIngestMetrics(run.ingest, e2e);
  AddSearchMetrics(run.search_ms, run.seconds, e2e);
}

/// Correctness gate over the finished store: Theorem 1 for every
/// distinct query on the final prefix, and every timed result equal to
/// the final result restricted to the pairs its prefix had completed.
void CheckYear(segdiff::SegDiffIndex* index, const Series& series,
               const YearRun& run, RunResult* result) {
  for (int i = 0; i < QueryMix::kQueryCount; ++i) {
    const Query q = QueryMix::Get(i);
    auto final_result = RunSearch(index, q, 0, nullptr);
    if (!result->Check(final_result.status(), "gate " + q.Label())) continue;
    ++result->attempted;
    const std::string violation = CheckTheorem1(series, *final_result, q);
    if (!violation.empty()) result->Fail(violation);
    for (const TimedResult& t : run.timed) {
      if (t.query != i) continue;
      // A pair is complete once its later segment has ended; flushes
      // end a segment at every acknowledged prefix.
      std::vector<PairId> prefix;
      for (const PairId& p : *final_result) {
        if (p.t_a <= t.prefix_end) prefix.push_back(p);
      }
      ++result->attempted;
      if (Digest(prefix) != t.digest) {
        result->Fail(q.Label() + ": result at prefix " +
                     std::to_string(t.prefix_end) +
                     " differs from the final result's prefix");
      }
    }
  }
}

}  // namespace

RunResult RunLiveIngest(const RunConfig& config) {
  RunResult result;
  CountingVfs vfs(segdiff::Vfs::Default());
  const std::string path = config.work_dir + "/live.db";

  // Set-up: generate the year and create the empty store, repeated
  // (it is short, so more repetitions steady its median).
  const int reps = config.trace ? 1 : 7;
  Samples setup_s, generate_s;
  Series series;
  std::unique_ptr<segdiff::SegDiffIndex> index;
  for (int rep = 0; rep < reps; ++rep) {
    index.reset();
    ResetDir(config.work_dir);
    const int64_t t0 = NowNs();
    auto generated = MakeSensorSeries(config.seed, kDays, 0);
    if (!result.Check(generated.status(), "generate")) return result;
    series = std::move(*generated);
    const int64_t t1 = NowNs();
    auto opened = segdiff::SegDiffIndex::Open(path, StoreOptions(false));
    if (!result.Check(opened.status(), "create store")) return result;
    index = std::move(*opened);
    generate_s.Add(static_cast<double>(t1 - t0) / 1e9);
    setup_s.Add(static_cast<double>(NowNs() - t0) / 1e9);
  }

  SettleStorage(config.work_dir);

  QueryMix mix(config.seed);
  YearRun run;
  RunYear(index.get(), series, &mix, &run, &result);
  if (config.trace) {
    // The untraced year above gives the baseline; now the same year
    // again, on a fresh store behind the counting Vfs, traced.
    MetricMap untraced;
    AddYearMetrics(run, &untraced);
    index.reset();
    ResetDir(config.work_dir);
    segdiff::SegDiffOptions options = StoreOptions(false);
    options.vfs = &vfs;
    auto opened = segdiff::SegDiffIndex::Open(path, options);
    if (!result.Check(opened.status(), "create traced store")) return result;
    index = std::move(*opened);
    const StoreCounters pool_before = ReadStoreCounters(index.get());
    const VfsCounts vfs_before = ReadVfs(vfs);
    QueryMix traced_mix(config.seed);
    run = YearRun();
    Tracer::Get().Clear();
    Tracer::Get().SetEnabled(true);
    RunYear(index.get(), series, &traced_mix, &run, &result);
    Tracer::Get().SetEnabled(false);
    MetricMap traced;
    AddYearMetrics(run, &traced);
    AddTraceOverhead(untraced, traced, &result.layer);

    const double obs = static_cast<double>(run.ingest.acknowledged);
    const double searches = static_cast<double>(run.totals.searches);
    AddSearchLayerMetrics(run.totals, &result.layer);
    AddPoolMetrics(pool_before, ReadStoreCounters(index.get()), obs, searches,
                   &result.layer);
    AddVfsMetrics(vfs_before, ReadVfs(vfs), obs, &result.layer);
    const auto spans = Tracer::Get().Totals();
    const auto mean = [&spans](const char* name, double unit_ns) {
      auto it = spans.find(name);
      return it == spans.end()
                 ? 0.0
                 : it->second.total_ns / unit_ns / it->second.count;
    };
    SetLayer(&result.layer, "segdiff.append_us", mean("segdiff.append", 1e3));
    SetLayer(&result.layer, "segdiff.flush_ms", mean("segdiff.flush", 1e6));
    SetLayer(&result.layer, "segdiff.search_ms", mean("segdiff.search", 1e6));
    SetLayer(&result.layer, "setup.generate_s", generate_s.Median());
    const ReplayResult replay = ReplaySegmentFeature(series);
    AddReplayMetrics(replay, &result.layer);
    SpanTotals ingest;
    for (const char* name : {"segdiff.append", "segdiff.flush"}) {
      if (auto it = spans.find(name); it != spans.end()) {
        ingest.total_ns += it->second.total_ns;
        ingest.self_ns += it->second.self_ns;
      }
    }
    AddInsertShare(ingest.total_ns, ingest.self_ns, replay, &result.layer);
    result.Check(ProbeFullScans(index.get(), &result.layer), "full scans");

    // The WAL layer: the same year once more on a store with the WAL on
    // (default options). Its counts describe the log this workload
    // would write; its timings are not used.
    const std::string wal_path = config.work_dir + "/live_wal.db";
    auto wal_store = segdiff::SegDiffIndex::Open(wal_path, StoreOptions(true));
    if (result.Check(wal_store.status(), "create WAL store")) {
      const StoreCounters wal_before = ReadStoreCounters(wal_store->get());
      QueryMix wal_mix(config.seed);
      YearRun wal_run;
      RunYear(wal_store->get(), series, &wal_mix, &wal_run, &result);
      AddWalMetrics(wal_before, ReadStoreCounters(wal_store->get()),
                    static_cast<double>(wal_run.ingest.acknowledged),
                    &result.layer);
      wal_store->reset();
    }
  }
  const double peak_rss = PeakRssMib();

  AddYearMetrics(run, &result.e2e);
  SetEndToEnd(&result.e2e, "setup_s", setup_s.Median());
  SetEndToEnd(&result.e2e, "peak_rss_mib", peak_rss);
  result.info["days"] = kDays;
  result.info["observations"] = static_cast<double>(run.ingest.acknowledged);
  result.info["segments"] = static_cast<double>(index->num_segments());
  result.info["setup_reps"] = reps;
  result.info["search_samples"] = static_cast<double>(run.search_ms.size());
  result.info["append_samples"] = static_cast<double>(run.ingest.append_us.size());
  result.info["ack_samples"] = static_cast<double>(run.ingest.flush_ms.size());

  CheckYear(index.get(), series, run, &result);

  // Every acknowledged observation must survive a close and reopen. The
  // closed store's files are the workload's storage footprint.
  index.reset();
  SetEndToEnd(&result.e2e, "storage_bytes_per_obs",
              static_cast<double>(StoreFileBytes(path)) /
                  std::max<double>(1.0, run.ingest.acknowledged));
  auto reopened = segdiff::SegDiffIndex::Open(path, StoreOptions(false));
  if (result.Check(reopened.status(), "reopen after run")) {
    ++result.attempted;
    if ((*reopened)->num_observations() != run.ingest.acknowledged) {
      result.Fail("reopened store holds " +
                  std::to_string((*reopened)->num_observations()) +
                  " observations, " +
                  std::to_string(run.ingest.acknowledged) + " acknowledged");
    }
  }
  return result;
}

}  // namespace perfbench
