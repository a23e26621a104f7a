// transect_sweep: the paper's "all sensors" query at scale.
//
// 64 sensors x 7 days in a sharded TransectIndex (8 sensors per shard)
// whose store cache holds at most 8 stores, 1/8 of the sensors, so
// every sweep reopens and evicts every store. The stores are
// bulk-loaded and swept with the WAL off (an archived transect; see
// perfbench/README.md for why) and otherwise default SegDiffOptions.
// The client issues serial transect searches; the traced run compares
// them with the nproc-thread fan-out. Store open/evict and the
// checkpoint on every close dominate; per-store query work is small.

#include <algorithm>
#include <memory>
#include <thread>

#include "counting_vfs.h"
#include "layers.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSensors = 64;
constexpr int kDays = 7;
constexpr int kSensorsPerShard = 8;
constexpr size_t kMaxOpenStores = kSensors / 8;
/// Sweeps timed on each side of the fan-out and residency comparisons.
constexpr size_t kProbeSweeps = 8;
/// Sensors whose stores are opened and closed directly for store.*.
constexpr int kProbeStores = 8;

/// Per-store buffer pool: holds a whole sensor store (about 330 pages).
/// TransectOptions advises sizing it down from the 4096-page default for
/// many stores; at the default, allocating and freeing 32 MiB of frames
/// on every open/close dominated a sweep and swung with the host's
/// page-fault cost.
constexpr size_t kPoolPages = 512;

segdiff::TransectOptions Options(size_t max_open, segdiff::Vfs* vfs) {
  segdiff::TransectOptions options;
  options.store = StoreOptions(/*wal=*/false);
  options.store.buffer_pool_pages = kPoolPages;
  options.store.vfs = vfs;
  options.sensors_per_shard = kSensorsPerShard;
  options.max_open_stores = max_open;
  return options;
}

segdiff::Result<std::vector<segdiff::TransectHit>> Sweep(
    segdiff::TransectIndex* transect, const Query& q, size_t threads,
    segdiff::TransectSearchStats* stats) {
  segdiff::SearchOptions options;
  options.mode = segdiff::QueryMode::kAuto;
  options.num_threads = threads;
  return q.kind == SearchKind::kDrop
             ? transect->SearchDrops(q.T, q.V, options, stats)
             : transect->SearchJumps(q.T, q.V, options, stats);
}

/// A fault-isolating transect search that skipped or lost a sensor
/// returned an incomplete answer: count it as failed.
std::string Incomplete(const segdiff::TransectSearchStats& stats) {
  if (stats.sensors_failed + stats.sensors_skipped == 0 && !stats.partial &&
      !stats.truncated) {
    return "";
  }
  return "incomplete sweep: " + std::to_string(stats.sensors_failed) +
         " failed, " + std::to_string(stats.sensors_skipped) + " skipped";
}

}  // namespace

RunResult RunTransectSweep(const RunConfig& config) {
  RunResult result;
  CountingVfs vfs(segdiff::Vfs::Default());
  const std::string dir = config.work_dir + "/transect";
  // Timed sweeps are serial: fanned out, the stores' close-time fsyncs
  // contend, and sweep times swung between two modes from run to run.
  const size_t fanout = std::max(1u, std::thread::hardware_concurrency());

  // Set-up, repeated: generate, bulk-load, reopen for timing. The
  // timed sweeps keep the WAL off too: with it on, every evicted store
  // also truncates and re-syncs its log, and those file-system journal
  // commits made sweep times swing by 2x from run to run.
  const int reps = config.trace ? 1 : 3;
  Samples setup_s, generate_s, build_s;
  IngestTimings ingest;
  std::vector<MetricMap> load_metrics;  // ingest metrics of each load
  std::vector<Series> series;
  std::unique_ptr<segdiff::TransectIndex> transect;
  for (int rep = 0; rep < reps; ++rep) {
    transect.reset();
    ResetDir(config.work_dir);
    ingest = IngestTimings();
    const int64_t t0 = NowNs();
    series.clear();
    for (int s = 0; s < kSensors; ++s) {
      auto generated = MakeSensorSeries(config.seed, kDays, s);
      if (!result.Check(generated.status(), "generate")) return result;
      series.push_back(std::move(*generated));
    }
    const int64_t t1 = NowNs();
    {
      auto loader = segdiff::TransectIndex::Open(
          dir, kSensors, Options(kMaxOpenStores, nullptr));
      if (!result.Check(loader.status(), "create transect")) return result;
      RunResult load;  // set-up calls are not workload operations
      for (int s = 0; s < kSensors; ++s) {
        auto store = (*loader)->sensor(s);
        if (!result.Check(store.status(), "open sensor")) return result;
        if (!result.Check(StreamDays(store->get(), series[s].samples(),
                                     &ingest, &load),
                          "bulk load")) {
          return result;
        }
      }
    }
    const int64_t t2 = NowNs();
    auto opened = segdiff::TransectIndex::Open(
        dir, kSensors,
        Options(kMaxOpenStores, config.trace ? &vfs : nullptr));
    if (!result.Check(opened.status(), "reopen transect")) return result;
    transect = std::move(*opened);
    AddIngestMetrics(ingest, &load_metrics.emplace_back());
    generate_s.Add(static_cast<double>(t1 - t0) / 1e9);
    build_s.Add(static_cast<double>(t2 - t1) / 1e9);
    setup_s.Add(static_cast<double>(NowNs() - t0) / 1e9);
  }
  uint64_t observations = 0;
  for (const Series& s : series) observations += s.size();

  SettleStorage(config.work_dir);

  // Warm-up: the first sweeps bring the store files into the OS cache.
  QueryMix mix(config.seed);
  for (int i = 0; i < 2; ++i) {
    segdiff::TransectSearchStats stats;
    result.Check(Sweep(transect.get(), QueryMix::Get(i), 1, &stats)
                     .status(),
                 "warm-up sweep");
  }

  std::vector<std::pair<int, uint64_t>> timed;  // (query, digest)
  SearchTotals totals;
  double store_search_s = 0.0;  // per-store searches, summed
  uint64_t store_searches = 0;
  auto search = [&](const Query& q) -> double {
    segdiff::TransectSearchStats stats;
    double ms = 0.0;
    auto r = TimedCall("transect.search", /*opens_request=*/true, &ms,
                       [&] { return Sweep(transect.get(), q, 1, &stats); });
    if (!result.Check(r.status(), q.Label())) return -1.0;
    const std::string incomplete = Incomplete(stats);
    if (!incomplete.empty()) result.Fail(q.Label() + ": " + incomplete);
    totals.Add(stats);
    store_search_s += stats.seconds;
    store_searches += stats.sensors_searched;
    timed.emplace_back(q.index, Digest(*r));
    return ms;
  };

  SearchLoop loop;
  if (!config.trace) {
    loop = RunSearchLoop(search, &mix, config.seconds, nullptr);
  } else {
    SearchLoop plain = RunSearchLoop(search, &mix, config.seconds / 2, nullptr);
    MetricMap untraced;
    AddSearchMetrics(plain.ms, plain.seconds, &untraced);
    totals = SearchTotals();
    store_search_s = 0.0;
    store_searches = 0;
    const segdiff::StoreLruStats lru_before = transect->store_stats();
    const VfsCounts vfs_before = ReadVfs(vfs);
    Tracer::Get().Clear();
    Tracer::Get().SetEnabled(true);
    loop = RunSearchLoop(search, &mix, 0, &plain.issued);
    Tracer::Get().SetEnabled(false);
    MetricMap traced;
    AddSearchMetrics(loop.ms, loop.seconds, &traced);
    AddTraceOverhead(untraced, traced, &result.layer);

    const double sweeps = static_cast<double>(totals.searches);
    AddSearchLayerMetrics(totals, &result.layer);
    SetLayer(&result.layer, "segdiff.search_ms",
             store_search_s * 1e3 /
                 std::max<double>(1.0, static_cast<double>(store_searches)));
    const VfsCounts vfs_after = ReadVfs(vfs);
    AddVfsMetrics(vfs_before, vfs_after, sweeps, &result.layer);
    double write_bytes = 0.0;
    double fsyncs = 0.0;
    for (int c = 0; c < kFileClasses; ++c) {
      const IoCounts d = vfs_after.by_class[c].Minus(vfs_before.by_class[c]);
      write_bytes += static_cast<double>(d.write_bytes);
      fsyncs += static_cast<double>(d.fsyncs);
    }
    SetLayer(&result.layer, "vfs.write_bytes_per_sweep", write_bytes / sweeps);
    SetLayer(&result.layer, "vfs.fsyncs_per_sweep", fsyncs / sweeps);
    const segdiff::StoreLruStats lru = transect->store_stats();
    const double opens = static_cast<double>(lru.opens - lru_before.opens);
    const double hits = static_cast<double>(lru.hits - lru_before.hits);
    SetLayer(&result.layer, "store_lru.opens_per_sweep", opens / sweeps);
    SetLayer(&result.layer, "store_lru.evictions_per_sweep",
             static_cast<double>(lru.evictions - lru_before.evictions) /
                 sweeps);
    SetLayer(&result.layer, "store_lru.hit_ratio",
             opens + hits > 0.0 ? hits / (opens + hits) : 0.0);

    // Fan-out: the same sweeps untraced, on one thread and fanned out
    // on nproc threads.
    Samples serial_ms, parallel_ms;
    for (size_t i = 0; i < kProbeSweeps && i < plain.issued.size(); ++i) {
      const Query q = QueryMix::Get(plain.issued[i]);
      double ms = 0.0;
      segdiff::TransectSearchStats stats;
      auto r = TimedCall("transect.search_serial", false, &ms, [&] {
        return Sweep(transect.get(), q, 1, &stats);
      });
      if (result.Check(r.status(), "serial sweep")) serial_ms.Add(ms);
      r = TimedCall("transect.search_fanout", false, &ms, [&] {
        return Sweep(transect.get(), q, fanout, &stats);
      });
      if (result.Check(r.status(), "parallel sweep")) parallel_ms.Add(ms);
    }
    SetLayer(&result.layer, "transect.fanout_speedup",
             serial_ms.Median() / std::max(parallel_ms.Median(), 1e-9));

    auto store = transect->sensor(0);
    if (result.Check(store.status(), "open sensor 0")) {
      result.Check(ProbeFullScans(store->get(), &result.layer), "full scans");
    }
  }
  const double peak_rss = PeakRssMib();

  std::vector<std::string> store_paths;
  for (int s = 0; s < kSensors; ++s) {
    store_paths.push_back(transect->catalog().StorePath(dir, s));
  }
  transect.reset();
  uint64_t store_bytes = 0;  // of the closed stores
  for (const std::string& path : store_paths) {
    store_bytes += StoreFileBytes(path);
  }
  const double churned_p50 = loop.ms.Median();
  AddSearchMetrics(loop.ms, loop.seconds, &result.e2e);
  AddMedians(load_metrics, &result.e2e);
  SetEndToEnd(&result.e2e, "setup_s", setup_s.Median());
  SetEndToEnd(&result.e2e, "storage_bytes_per_obs",
              static_cast<double>(store_bytes) /
                  static_cast<double>(observations));
  SetEndToEnd(&result.e2e, "peak_rss_mib", peak_rss);
  result.info["sensors"] = kSensors;
  result.info["days"] = kDays;
  result.info["sensors_per_shard"] = kSensorsPerShard;
  result.info["max_open_stores"] = static_cast<double>(kMaxOpenStores);
  result.info["fanout_threads"] = static_cast<double>(fanout);
  result.info["observations"] = static_cast<double>(observations);
  result.info["setup_reps"] = reps;
  result.info["search_samples"] = static_cast<double>(loop.ms.size());
  result.info["append_samples"] = static_cast<double>(ingest.append_us.size());
  result.info["ack_samples"] = static_cast<double>(ingest.flush_ms.size());

  // Correctness gate: every timed sweep must equal the serial sweep of
  // the same query over a transect with every store resident.
  auto resident =
      segdiff::TransectIndex::Open(dir, kSensors, Options(kSensors, nullptr));
  if (!result.Check(resident.status(), "open resident transect")) {
    return result;
  }
  uint64_t reference[QueryMix::kQueryCount] = {};
  for (int i = 0; i < QueryMix::kQueryCount; ++i) {
    const Query q = QueryMix::Get(i);
    segdiff::TransectSearchStats stats;
    auto r = Sweep(resident->get(), q, 1, &stats);
    if (!result.Check(r.status(), "reference " + q.Label())) continue;
    if (!Incomplete(stats).empty()) result.Fail("reference " + q.Label());
    reference[i] = Digest(*r);
  }
  for (const auto& [query, digest] : timed) {
    ++result.attempted;
    if (digest != reference[query]) {
      result.Fail(QueryMix::Get(query).Label() +
                  ": sweep differs from the serial all-resident sweep");
    }
  }

  if (config.trace) {
    // The churned sweep's cost over the same sweep with every store
    // resident (the reference pass above opened them all).
    Samples resident_ms;
    for (size_t i = 0; i < kProbeSweeps; ++i) {
      const Query q = QueryMix::Get(loop.issued[i % loop.issued.size()]);
      double ms = 0.0;
      segdiff::TransectSearchStats stats;
      auto r = TimedCall("transect.search_resident", false, &ms, [&] {
        return Sweep(resident->get(), q, 1, &stats);
      });
      if (result.Check(r.status(), "resident sweep")) resident_ms.Add(ms);
    }
    const double resident_p50 = resident_ms.Median();
    SetLayer(&result.layer, "transect.resident_sweep_ms", resident_p50);
    SetLayer(&result.layer, "store_lru.churn_share",
             churned_p50 > 0.0 ? 1.0 - resident_p50 / churned_p50 : 0.0);
    resident->reset();

    // Store open and close on sample sensors, directly.
    Samples open_ms, close_ms;
    for (int k = 0; k < kProbeStores; ++k) {
      const std::string& path = store_paths[k * (kSensors / kProbeStores)];
      double ms = 0.0;
      auto store = TimedCall("segdiff.open", false, &ms, [&] {
        return segdiff::SegDiffIndex::Open(path, Options(1, nullptr).store);
      });
      if (!result.Check(store.status(), "open " + path)) continue;
      open_ms.Add(ms);
      TimedCall("segdiff.close", false, &ms, [&] {
        store->reset();
        return 0;
      });
      close_ms.Add(ms);
    }
    SetLayer(&result.layer, "store.open_ms", open_ms.Median());
    SetLayer(&result.layer, "store.close_ms", close_ms.Median());
    SetLayer(&result.layer, "setup.generate_s", generate_s.Median());
    SetLayer(&result.layer, "setup.build_s", build_s.Median());
    SetLayer(&result.layer, "segdiff.append_us", ingest.append_us.Mean());
    SetLayer(&result.layer, "segdiff.flush_ms", ingest.flush_ms.Mean());
    ReplayResult replay;
    for (const Series& s : series) {
      const ReplayResult one = ReplaySegmentFeature(s);
      replay.observations += one.observations;
      replay.segments += one.segments;
      replay.rows += one.rows;
      replay.segment_s += one.segment_s;
      replay.extract_s += one.extract_s;
    }
    AddReplayMetrics(replay, &result.layer);
    // The bulk load ran without the counting Vfs: its IO stays in.
    const double ingest_ns =
        ingest.append_us.Sum() * 1e3 + ingest.flush_ms.Sum() * 1e6;
    AddInsertShare(ingest_ns, ingest_ns, replay, &result.layer);
  }
  return result;
}

}  // namespace perfbench
