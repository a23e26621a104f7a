// history_scan: the paper's drop/jump query over an archived store.
//
// Set-up generates one sensor-year, loads it into a row-format store
// (WAL off: a bulk load), compacts it to columnar, and reopens the
// compacted store with default options. The loop issues serial
// kAuto searches from the mix. The store fits the buffer pool, so the
// time goes to columnar decode, the scan kernels, zone maps, the
// planner and residual/dedup; WAL, ingest and store churn do nothing.

#include <memory>

#include "counting_vfs.h"
#include "layers.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kDays = 365;

}  // namespace

RunResult RunHistoryScan(const RunConfig& config) {
  RunResult result;
  CountingVfs vfs(segdiff::Vfs::Default());
  const std::string row_path = config.work_dir + "/history_row.db";
  const std::string path = config.work_dir + "/history.db";

  // Set-up, repeated; the last repetition's store is the one searched.
  const int reps = config.trace ? 1 : 3;
  Samples setup_s, generate_s, build_s, compact_s;
  IngestTimings ingest;
  std::vector<MetricMap> load_metrics;  // ingest metrics of each load
  Series series;
  std::unique_ptr<segdiff::SegDiffIndex> index;
  for (int rep = 0; rep < reps; ++rep) {
    index.reset();
    ResetDir(config.work_dir);
    ingest = IngestTimings();
    const int64_t t0 = NowNs();
    auto generated = MakeSensorSeries(config.seed, kDays, 0);
    if (!result.Check(generated.status(), "generate")) return result;
    series = std::move(*generated);
    const int64_t t1 = NowNs();
    {
      auto row = segdiff::SegDiffIndex::Open(row_path, StoreOptions(false));
      if (!result.Check(row.status(), "open row store")) return result;
      RunResult load;  // set-up calls are not workload operations
      if (!result.Check(StreamDays(row->get(), series.samples(), &ingest, &load),
                        "bulk load")) {
        return result;
      }
      const int64_t t2 = NowNs();
      if (!result.Check((*row)->Compact(path), "Compact")) return result;
      build_s.Add(static_cast<double>(t2 - t1) / 1e9);
      compact_s.Add(static_cast<double>(NowNs() - t2) / 1e9);
    }
    segdiff::SegDiffOptions options = StoreOptions(true);
    options.vfs = config.trace ? &vfs : nullptr;
    auto reopened = segdiff::SegDiffIndex::Open(path, options);
    if (!result.Check(reopened.status(), "reopen compacted store")) {
      return result;
    }
    index = std::move(*reopened);
    AddIngestMetrics(ingest, &load_metrics.emplace_back());
    generate_s.Add(static_cast<double>(t1 - t0) / 1e9);
    setup_s.Add(static_cast<double>(NowNs() - t0) / 1e9);
  }

  SettleStorage(config.work_dir);

  // Warm-up: one search per distinct query fills the caches, finishes
  // lazy initialisation, and records the digest every later result of
  // that query must match.
  uint64_t reference[QueryMix::kQueryCount] = {};
  for (int i = 0; i < QueryMix::kQueryCount; ++i) {
    const Query q = QueryMix::Get(i);
    auto r = RunSearch(index.get(), q, 0, nullptr);
    if (!result.Check(r.status(), "warm-up " + q.Label())) return result;
    reference[i] = Digest(*r);
  }

  SearchTotals totals;
  auto search = [&](const Query& q) -> double {
    segdiff::SearchStats stats;
    double ms = 0.0;
    auto r = TimedCall("segdiff.search", /*opens_request=*/true, &ms,
                       [&] { return RunSearch(index.get(), q, 0, &stats); });
    if (!result.Check(r.status(), q.Label())) return -1.0;
    totals.Add(stats);
    if (Digest(*r) != reference[q.index]) {
      result.Fail(q.Label() + ": result differs from the warm-up result");
    }
    return ms;
  };

  QueryMix mix(config.seed);
  SearchLoop loop;
  if (!config.trace) {
    loop = RunSearchLoop(search, &mix, config.seconds, nullptr);
  } else {
    // Untraced half, then the same queries traced: the difference is
    // the tracing overhead.
    SearchLoop plain = RunSearchLoop(search, &mix, config.seconds / 2, nullptr);
    MetricMap untraced;
    AddSearchMetrics(plain.ms, plain.seconds, &untraced);
    totals = SearchTotals();
    const StoreCounters pool_before = ReadStoreCounters(index.get());
    const VfsCounts vfs_before = ReadVfs(vfs);
    Tracer::Get().Clear();
    Tracer::Get().SetEnabled(true);
    loop = RunSearchLoop(search, &mix, 0, &plain.issued);
    Tracer::Get().SetEnabled(false);
    MetricMap traced;
    AddSearchMetrics(loop.ms, loop.seconds, &traced);
    AddTraceOverhead(untraced, traced, &result.layer);
    const double searches = static_cast<double>(totals.searches);
    AddSearchLayerMetrics(totals, &result.layer);
    AddPoolMetrics(pool_before, ReadStoreCounters(index.get()), 0, searches,
                   &result.layer);
    AddVfsMetrics(vfs_before, ReadVfs(vfs), searches, &result.layer);
    const auto spans = Tracer::Get().Totals();
    if (auto it = spans.find("segdiff.search"); it != spans.end()) {
      SetLayer(&result.layer, "segdiff.search_ms",
               it->second.total_ns / 1e6 / it->second.count);
    }
  }
  const double peak_rss = PeakRssMib();

  // End-to-end metrics.
  AddSearchMetrics(loop.ms, loop.seconds, &result.e2e);
  AddMedians(load_metrics, &result.e2e);
  SetEndToEnd(&result.e2e, "setup_s", setup_s.Median());
  SetEndToEnd(&result.e2e, "storage_bytes_per_obs",
              static_cast<double>(StoreFileBytes(path)) /
                  static_cast<double>(index->num_observations()));
  SetEndToEnd(&result.e2e, "peak_rss_mib", peak_rss);
  result.info["days"] = kDays;
  result.info["observations"] = static_cast<double>(index->num_observations());
  result.info["segments"] = static_cast<double>(index->num_segments());
  result.info["setup_reps"] = reps;
  result.info["search_samples"] = static_cast<double>(loop.ms.size());
  result.info["append_samples"] = static_cast<double>(ingest.append_us.size());
  result.info["ack_samples"] = static_cast<double>(ingest.flush_ms.size());

  if (config.trace) {
    SetLayer(&result.layer, "setup.generate_s", generate_s.Median());
    SetLayer(&result.layer, "setup.build_s", build_s.Median());
    SetLayer(&result.layer, "setup.compact_s", compact_s.Median());
    SetLayer(&result.layer, "segdiff.append_us", ingest.append_us.Mean());
    SetLayer(&result.layer, "segdiff.flush_ms", ingest.flush_ms.Mean());
    const ReplayResult replay = ReplaySegmentFeature(series);
    AddReplayMetrics(replay, &result.layer);
    // The bulk load ran without the counting Vfs: its IO stays in.
    const double ingest_ns =
        ingest.append_us.Sum() * 1e3 + ingest.flush_ms.Sum() * 1e6;
    AddInsertShare(ingest_ns, ingest_ns, replay, &result.layer);
    result.Check(ProbeFullScans(index.get(), &result.layer), "full scans");
  }

  // Correctness gate, outside every timed region: each distinct query
  // once more against the oracle (Theorem 1), and against its warm-up
  // digest.
  for (int i = 0; i < QueryMix::kQueryCount; ++i) {
    const Query q = QueryMix::Get(i);
    auto r = RunSearch(index.get(), q, 0, nullptr);
    if (!result.Check(r.status(), "gate " + q.Label())) continue;
    ++result.attempted;
    if (Digest(*r) != reference[i]) {
      result.Fail(q.Label() + ": gate result differs from the warm-up result");
    }
    ++result.attempted;
    const std::string violation = CheckTheorem1(series, *r, q);
    if (!violation.empty()) result.Fail(violation);
  }
  return result;
}

}  // namespace perfbench
