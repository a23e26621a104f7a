// Ingest throughput: observations/second through the streaming pipeline
// (segmentation + Algorithm 1 + feature-table inserts), measured three
// ways:
//   batch       one IngestSeries call over the whole series
//   streaming   one AppendObservation call per observation + final flush
//   transect/N  one series per sensor, ingested concurrently on N threads
// The batch-vs-streaming delta is the per-call overhead of the unified
// observation-at-a-time path (the two produce byte-identical stores);
// the transect rows show per-sensor ingest parallelism.
//
// Results additionally land in BENCH_ingest.json.

#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "benchutil/report.h"
#include "benchutil/workload.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "segdiff/segdiff_index.h"
#include "segdiff/transect_index.h"

namespace segdiff {
namespace {

constexpr size_t kTransectThreads[] = {1, 2, 4, 8};
constexpr int kTransectSensors = 8;

SegDiffOptions StoreOptions() {
  SegDiffOptions options;
  options.eps = PaperDefaults::kEps;
  options.window_s = PaperDefaults::kWindowS;
  options.buffer_pool_pages = 32768;
  return options;
}

int RunBench() {
  WorkloadConfig config = WorkloadConfig::FromEnv();
  auto series_or = MakeSmoothedBenchSeries(config);
  SEGDIFF_CHECK(series_or.ok()) << series_or.status().ToString();
  const Series& series = *series_or;
  std::cout << "workload: " << series.size() << " observations ("
            << config.num_days << " days at " << config.sample_interval_s
            << " s), eps=" << PaperDefaults::kEps << "\n";

  PrintBanner(std::cout, "Ingest throughput: batch vs streaming vs "
                         "concurrent transect");
  TablePrinter table({"shape", "threads", "wall ms", "obs/s", "segments",
                      "feature rows"});
  JsonValue results = JsonValue::Array();

  auto add_row = [&](const std::string& shape, size_t threads,
                     double seconds, uint64_t observations,
                     uint64_t segments, uint64_t rows) {
    const double obs_per_s =
        seconds > 0.0 ? static_cast<double>(observations) / seconds : 0.0;
    table.AddRow({shape, std::to_string(threads), Fmt(seconds * 1e3, 1),
                  Fmt(obs_per_s / 1e3, 1) + "K", std::to_string(segments),
                  std::to_string(rows)});
    JsonValue row = JsonValue::Object();
    row.Set("shape", shape);
    row.Set("threads", static_cast<int64_t>(threads));
    row.Set("seconds", seconds);
    row.Set("observations", static_cast<int64_t>(observations));
    row.Set("obs_per_s", obs_per_s);
    row.Set("segments", static_cast<int64_t>(segments));
    row.Set("feature_rows", static_cast<int64_t>(rows));
    results.Append(std::move(row));
  };

  {
    const std::string path = BenchDbPath("ingest_batch");
    auto store = SegDiffIndex::Open(path, StoreOptions());
    SEGDIFF_CHECK(store.ok()) << store.status().ToString();
    Stopwatch watch;
    SEGDIFF_CHECK_OK((*store)->IngestSeries(series));
    const double seconds = watch.ElapsedSeconds();
    add_row("batch", 1, seconds, series.size(), (*store)->num_segments(),
            (*store)->GetSizes().feature_rows);
    store->reset();
    RemoveBenchDb(path);
  }

  {
    const std::string path = BenchDbPath("ingest_streaming");
    auto store = SegDiffIndex::Open(path, StoreOptions());
    SEGDIFF_CHECK(store.ok()) << store.status().ToString();
    Stopwatch watch;
    for (const Sample& sample : series) {
      SEGDIFF_CHECK_OK((*store)->AppendObservation(sample.t, sample.v));
    }
    SEGDIFF_CHECK_OK((*store)->FlushPending());
    const double seconds = watch.ElapsedSeconds();
    add_row("streaming", 1, seconds, series.size(),
            (*store)->num_segments(), (*store)->GetSizes().feature_rows);
    store->reset();
    RemoveBenchDb(path);
  }

  // Transect: same workload per sensor, scaled-down horizon so the
  // serial baseline stays in seconds.
  WorkloadConfig sensor_config = config;
  sensor_config.num_days = std::max(2, config.num_days / 2);
  std::vector<Series> all_series;
  uint64_t transect_observations = 0;
  for (int s = 0; s < kTransectSensors; ++s) {
    WorkloadConfig one = sensor_config;
    one.seed = sensor_config.seed + static_cast<uint64_t>(s);
    auto sensor_series = MakeSmoothedBenchSeries(one);
    SEGDIFF_CHECK(sensor_series.ok()) << sensor_series.status().ToString();
    transect_observations += sensor_series->size();
    all_series.push_back(std::move(sensor_series).value());
  }
  for (const size_t threads : kTransectThreads) {
    const std::string dir =
        BenchDbPath("ingest_transect_" + std::to_string(threads));
    auto transect = TransectIndex::Open(dir, kTransectSensors,
                                        TransectOptions{StoreOptions()});
    SEGDIFF_CHECK(transect.ok()) << transect.status().ToString();
    Stopwatch watch;
    SEGDIFF_CHECK_OK((*transect)->IngestAllSensors(all_series, threads));
    const double seconds = watch.ElapsedSeconds();
    auto sizes = (*transect)->GetSizes();
    SEGDIFF_CHECK(sizes.ok()) << sizes.status().ToString();
    uint64_t segments = 0;
    for (int s = 0; s < kTransectSensors; ++s) {
      segments += (*(*transect)->sensor(s))->num_segments();
    }
    add_row("transect", threads, seconds, transect_observations, segments,
            sizes->feature_rows);
    transect->reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  table.Print(std::cout);
  std::cout << "expected shape: streaming within ~10% of batch (same "
               "pipeline, per-call overhead only); transect scales with "
               "threads until storage inserts saturate.\n";

  // Durable ingest: the cost of acknowledged-means-durable streaming.
  // Group-commit window 0 fsyncs inside every append (the upper bound);
  // wider windows batch appends into one fsync, and checkpoint-only
  // (wal=false) is the pre-WAL baseline that loses everything since the
  // last checkpoint in a crash. fsyncs/append is the batching factor.
  PrintBanner(std::cout,
              "Durable ingest: WAL group-commit windows vs checkpoint-only");
  TablePrinter wal_table({"mode", "wall ms", "obs/s", "wal fsyncs",
                          "fsyncs/append", "group commits"});
  JsonValue wal_results = JsonValue::Array();
  struct DurabilityMode {
    const char* name;
    bool wal;
    int64_t window_ms;
  };
  constexpr DurabilityMode kModes[] = {
      {"checkpoint-only", false, 0},
      {"wal window 0ms", true, 0},
      {"wal window 1ms", true, 1},
      {"wal window 5ms", true, 5},
  };
  for (const DurabilityMode& mode : kModes) {
    const std::string path = BenchDbPath("ingest_durable");
    SegDiffOptions options = StoreOptions();
    options.wal = mode.wal;
    options.wal_group_commit_ms = mode.window_ms;
    auto store = SegDiffIndex::Open(path, options);
    SEGDIFF_CHECK(store.ok()) << store.status().ToString();
    Stopwatch watch;
    for (const Sample& sample : series) {
      SEGDIFF_CHECK_OK((*store)->AppendObservation(sample.t, sample.v));
    }
    SEGDIFF_CHECK_OK((*store)->FlushPending());
    const double seconds = watch.ElapsedSeconds();
    const WalInfo info = (*store)->db()->GetWalInfo();
    const double obs_per_s =
        seconds > 0.0 ? static_cast<double>(series.size()) / seconds : 0.0;
    const double fsyncs_per_append =
        info.stats.appends > 0
            ? static_cast<double>(info.stats.fsyncs) /
                  static_cast<double>(info.stats.appends)
            : 0.0;
    wal_table.AddRow({mode.name, Fmt(seconds * 1e3, 1),
                      Fmt(obs_per_s / 1e3, 1) + "K",
                      std::to_string(info.stats.fsyncs),
                      Fmt(fsyncs_per_append, 3),
                      std::to_string(info.stats.group_commits)});
    JsonValue row = JsonValue::Object();
    row.Set("mode", std::string(mode.name));
    row.Set("wal", mode.wal);
    row.Set("group_commit_ms", mode.window_ms);
    row.Set("seconds", seconds);
    row.Set("observations", static_cast<int64_t>(series.size()));
    row.Set("obs_per_s", obs_per_s);
    row.Set("wal_appends", static_cast<int64_t>(info.stats.appends));
    row.Set("wal_fsyncs", static_cast<int64_t>(info.stats.fsyncs));
    row.Set("fsyncs_per_append", fsyncs_per_append);
    row.Set("group_commits", static_cast<int64_t>(info.stats.group_commits));
    row.Set("wal_bytes_written",
            static_cast<int64_t>(info.stats.bytes_written));
    wal_results.Append(std::move(row));
    store->reset();
    RemoveBenchDb(path);
  }
  wal_table.Print(std::cout);
  std::cout << "expected shape: window 0 pays ~1 fsync per append; wider "
               "windows amortize toward the checkpoint-only rate while "
               "keeping every acknowledged observation crash-durable.\n";

  JsonValue wal_root = JsonValue::Object();
  wal_root.Set("bench", "durability");
  wal_root.Set("observations", static_cast<int64_t>(series.size()));
  wal_root.Set("results", std::move(wal_results));
  const std::string wal_json_path = BenchReportPath("BENCH_durability.json");
  if (WriteJsonFile(wal_json_path, wal_root)) {
    std::cout << "wrote " << wal_json_path << "\n";
  } else {
    std::cout << "failed to write " << wal_json_path << "\n";
  }

  JsonValue root = JsonValue::Object();
  root.Set("bench", "ingest");
  root.Set("observations", static_cast<int64_t>(series.size()));
  root.Set("transect_sensors", static_cast<int64_t>(kTransectSensors));
  root.Set("transect_observations",
           static_cast<int64_t>(transect_observations));
  root.Set("hardware_threads",
           static_cast<int64_t>(std::thread::hardware_concurrency()));
  root.Set("results", std::move(results));
  const std::string json_path = BenchReportPath("BENCH_ingest.json");
  if (WriteJsonFile(json_path, root)) {
    std::cout << "wrote " << json_path << "\n";
  } else {
    std::cout << "failed to write " << json_path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace segdiff

int main() { return segdiff::RunBench(); }
