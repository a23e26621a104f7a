// perfbench: runs one workload and reports its metrics.
//
//   perfbench --workload <history_scan|live_ingest|transect_sweep>
//             --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//             [--commit <id>] [--source-digest <hash>]
//
// Prints a human-readable report, then, as the last line of standard
// output, one JSON object {correct, attempted, failed, metrics}: every
// end-to-end metric untraced (--trace 0), every per-layer metric traced
// (--trace 1). The full result with run metadata is written to
// <out-dir>/results/, a traced run's spans to <out-dir>/traces/.
// Exits 1 when any operation failed or the correctness gate failed.
// Normally started through perfbench/run.py, which builds this binary.

#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "layers.h"
#include "query/scan_kernel.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  RunConfig run;
  std::string out_dir;
  std::string commit = "none";
  std::string source_digest = "none";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_out = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->run.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->run.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      args->run.seconds = std::stod(value);
    } else if (key == "--trace") {
      args->run.trace = value == "1";
    } else if (key == "--out-dir") {
      args->out_dir = value;
      have_out = true;
    } else if (key == "--commit") {
      args->commit = value;
    } else if (key == "--source-digest") {
      args->source_digest = value;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_out && args->run.seconds > 0.0;
}

std::string Number(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const MetricMap& metrics,
                        const std::vector<MetricSpec>& order) {
  std::string out = "{";
  bool first = true;
  for (const MetricSpec& spec : order) {
    const auto it = metrics.find(spec.name);
    const double value = it == metrics.end() ? 0.0 : it->second.value;
    out += (first ? "" : ", ") + Quote(spec.name) + ": {\"value\": " +
           Number(value) + ", \"unit\": " + Quote(spec.unit) + "}";
    first = false;
  }
  return out + "}";
}

void PrintTable(const char* title, const MetricMap& metrics,
                const std::vector<MetricSpec>& order) {
  std::printf("\n%s\n", title);
  for (const MetricSpec& spec : order) {
    const auto it = metrics.find(spec.name);
    const double value = it == metrics.end() ? 0.0 : it->second.value;
    std::printf("  %-40s %16.6g %s\n", spec.name, value, spec.unit);
  }
}

int Main(int argc, char** argv) {
  const std::vector<std::string> cleared = ClearSegdiffEnv();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --out-dir <dir>\n");
    return 2;
  }
  RunConfig& run = args.run;
  const std::string tag = run.workload + "-seed" + std::to_string(run.seed) +
                          (run.trace ? "-trace" : "");
  run.work_dir = args.out_dir + "/work/" + tag + "-" +
                 std::to_string(static_cast<long>(getpid()));
  ResetDir(run.work_dir);
  const std::string fs_type = FileSystemType(run.work_dir);

  RunResult result;
  try {
    if (run.workload == "history_scan") {
      result = RunHistoryScan(run);
    } else if (run.workload == "live_ingest") {
      result = RunLiveIngest(run);
    } else if (run.workload == "transect_sweep") {
      result = RunTransectSweep(run);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", run.workload.c_str());
      RemoveDir(run.work_dir);
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    RemoveDir(run.work_dir);
    return 2;
  }
  RemoveDir(run.work_dir);
  if (result.attempted == 0) {
    result.Fail("no operation was attempted");
    result.attempted = 1;
  }
  const bool correct = result.failed == 0;
  const double error_rate =
      static_cast<double>(result.failed) / static_cast<double>(result.attempted);

  // Metadata recorded with every result.
  std::vector<std::pair<std::string, std::string>> meta = {
      {"workload", run.workload},
      {"seed", std::to_string(run.seed)},
      {"seconds", Number(run.seconds)},
      {"trace", run.trace ? "1" : "0"},
      {"commit", args.commit},
      {"source_digest", args.source_digest},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      // Set by perfbench/CMakeLists.txt.
      {"compiler", PERFBENCH_COMPILER},
      {"flags", std::string(PERFBENCH_BUILD_TYPE) + ": " + PERFBENCH_CXX_FLAGS},
      {"scan_kernel", segdiff::ActiveScanKernelName()},
      {"work_fs", fs_type},
  };
  std::string cleared_list;
  for (const std::string& name : cleared) {
    cleared_list += (cleared_list.empty() ? "" : ",") + name;
  }
  meta.emplace_back("cleared_env", cleared_list.empty() ? "-" : cleared_list);

  std::printf("perfbench %s\n", tag.c_str());
  for (const auto& [key, value] : meta) {
    std::printf("  %-16s %s\n", key.c_str(), value.c_str());
  }
  for (const auto& [key, value] : result.info) {
    std::printf("  %-16s %s\n", key.c_str(), Number(value).c_str());
  }
  PrintTable(run.trace ? "end-to-end (traced pass; not for comparison)"
                       : "end-to-end",
             result.e2e, EndToEndSpecs());
  std::printf("  %-40s %16.6g ratio (%llu failed of %llu attempted)\n",
              "error_rate", error_rate,
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  for (const std::string& e : result.errors) {
    std::printf("  FAILED: %s\n", e.c_str());
  }

  const std::string results_dir = args.out_dir + "/results";
  std::filesystem::create_directories(results_dir);
  if (run.trace) {
    PrintTable("per-layer", result.layer, PerLayerSpecs());
    std::printf("\nspans (count, total ms, self ms)\n");
    for (const auto& [name, t] : Tracer::Get().Totals()) {
      std::printf("  %-32s %10llu %14.3f %14.3f\n", name.c_str(),
                  static_cast<unsigned long long>(t.count), t.total_ns / 1e6,
                  t.self_ns / 1e6);
    }
    const std::string traces_dir = args.out_dir + "/traces";
    std::filesystem::create_directories(traces_dir);
    const std::string span_path = traces_dir + "/" + run.workload + ".tsv";
    if (!Tracer::Get().WriteTsv(span_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", span_path.c_str());
    }
  }

  // The full record: metadata, sizes, both metric sets, error rate.
  std::ostringstream record;
  record << "{\"meta\": {";
  for (size_t i = 0; i < meta.size(); ++i) {
    record << (i ? ", " : "") << Quote(meta[i].first) << ": "
           << Quote(meta[i].second);
  }
  record << "}, \"info\": {";
  bool first = true;
  for (const auto& [key, value] : result.info) {
    record << (first ? "" : ", ") << Quote(key) << ": " << Number(value);
    first = false;
  }
  record << "}, \"end_to_end\": " << MetricsJson(result.e2e, EndToEndSpecs())
         << ", \"error_rate\": " << Number(error_rate);
  if (run.trace) {
    record << ", \"per_layer\": " << MetricsJson(result.layer, PerLayerSpecs());
  }
  record << ", \"errors\": [";
  for (size_t i = 0; i < result.errors.size(); ++i) {
    record << (i ? ", " : "") << Quote(result.errors[i]);
  }
  record << "]}\n";
  const std::string record_path = results_dir + "/" + tag + ".json";
  if (FILE* f = std::fopen(record_path.c_str(), "w")) {
    std::fputs(record.str().c_str(), f);
    std::fclose(f);
  }

  std::printf("\n{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              run.trace ? MetricsJson(result.layer, PerLayerSpecs()).c_str()
                        : MetricsJson(result.e2e, EndToEndSpecs()).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
