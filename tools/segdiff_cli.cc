// segdiff_cli: the exploratory command-line tool the paper's biologists
// asked for. Generate or import sensor data, build a SegDiff store, run
// drop/jump searches with different thresholds, inspect store contents
// with SQL, and print storage statistics.
//
// Usage:
//   segdiff_cli generate --out data.csv [--days 30] [--sensor 0]
//                        [--seed 20080325] [--start-day 0] [--smooth]
//   segdiff_cli build    --csv data.csv --db store.db [--eps 0.2]
//                        [--window-hours 8] [--no-index] [--smooth]
//                        [--no-wal] [--wal-window-ms N]
//                        (--no-wal reverts to checkpoint-only
//                         durability; --wal-window-ms sets the
//                         group-commit window — 0 fsyncs every append,
//                         default 1 ms)
//   segdiff_cli append   --csv more.csv --db store.db [--smooth]
//                        [--no-wal] [--wal-window-ms N]
//                        (resume ingest into an existing store; picks up
//                         the persisted open segment and build options)
//   segdiff_cli search   --db store.db [--t-hours 1] [--v -3] [--jump]
//                        [--mode seq|index|auto] [--limit 20] [--stats]
//                        [--timeout-ms N] [--max-mem BYTES] [--threads N]
//                        (--timeout-ms bounds the search: past the
//                         deadline it fails with DEADLINE_EXCEEDED;
//                         --max-mem caps result memory — a breached
//                         budget returns the partial results marked
//                         TRUNCATED; --stats additionally prints executor
//                         counters — pages scanned/pruned by the zone
//                         maps, rows scanned/pruned, the active scan
//                         kernel — and the store's governance counters)
//   segdiff_cli stats    --db store.db
//                        (includes the write-ahead log: size, last and
//                         durable LSNs, the applied (checkpoint) LSN,
//                         how many records the last open replayed, and
//                         how many torn-tail bytes it trimmed; plus a
//                         health block — degraded mode, quarantined
//                         pages, buffer-pool read failures)
//   segdiff_cli sql      --db store.db --query "SELECT ..."
//                        [--timeout-ms N]  (statement timeout; the REPL
//                         also accepts SET statement_timeout_ms = N)
//   segdiff_cli segment  --csv data.csv --eps 0.2 --out segments.csv
//                        (export the piecewise linear approximation,
//                         e.g. for plotting the paper's Figure 1 (b))
//   segdiff_cli compact  --db store.db --out compacted.db
//                        (rewrites the store into compressed columnar
//                         segments. The copy carries no B+-tree
//                         indexes: searches scan and prune segments,
//                         and search --mode index fails there with
//                         InvalidArgument, as on a --no-index store)
//   segdiff_cli repair   --db store.db --out repaired.db
//                        (salvages everything still readable into a
//                         fresh store: corrupt pages are skipped and
//                         counted — a corrupt columnar segment as its
//                         page span, as a partial search counts it —
//                         every surviving row is copied into columnar
//                         segments without indexes, as compact does.
//                         The damaged source is never written to)
//   segdiff_cli transect build  --dir transect/ --sensors N [--days 7]
//                        [--seed 20080325] [--eps 0.2] [--window-hours 8]
//                        [--shard-sensors K] [--max-open M] [--threads T]
//                        (generates one CAD series per sensor and ingests
//                         them concurrently into a sharded transect:
//                         sensor-id ranges of K sensors per shard
//                         directory (default 256), at most M stores open
//                         at once (default unbounded))
//   segdiff_cli transect search --dir transect/ [--t-hours 1] [--v -3]
//                        [--jump] [--threads N] [--timeout-ms N]
//                        [--max-open M] [--limit 20] [--stats]
//                        (scatter-gather across all sensors: --threads is
//                         the fan-out width over shards; one shared
//                         deadline governs the whole sweep; --stats adds
//                         executor counters and store-cache behaviour)
//   segdiff_cli transect stats  --dir transect/ [--max-open M]
//                        (shard catalog layout, aggregate sizes, the
//                         open-store cache's counters, and a health
//                         block from a scrub sweep. Exit code follows
//                         verify's contract: 0 healthy, 2 corrupt
//                         sensors, 3 transient I/O)
//   segdiff_cli transect verify --dir transect/ [--max-open M]
//                        [--rate-mbps N]
//                        (walks every sensor store under the LRU cap —
//                         open, health flags, full page scrub — and
//                         prints the aggregate report; --rate-mbps
//                         throttles the sweep so it does not starve
//                         serving searches. Exit: 0 clean, 2 corrupt
//                         sensors, 3 sensors unavailable on transient
//                         I/O)
//   segdiff_cli transect repair --dir transect/ [--max-open M]
//                        [--rate-mbps N]
//                        (verify + in-place salvage: each damaged store
//                         is repaired into a fresh file that atomically
//                         replaces the original; healthy sensors are
//                         untouched. Exit: 0 all repaired or healthy,
//                         2 some repairs failed)
//   segdiff_cli transect rebalance --dir transect/ --shard-sensors K
//                        (migrates the transect onto K sensors per
//                         shard, crash-safely: a MIGRATION intent
//                         manifest plus per-sensor compacting copies,
//                         committed by an atomic CATALOG swap — a crash
//                         at any point is rolled forward or back on the
//                         next open)
//   segdiff_cli verify   --db store.db [--scrub]
//                        (logical check: every table's scanned row count
//                         matches its heap metadata; --scrub additionally
//                         verifies the checksum of every page in the
//                         file, mapping any damage to exact page numbers,
//                         and walks the write-ahead log frame by frame —
//                         a torn tail is reported but healthy (recovery
//                         trims it). Exit code: 0 healthy, 2 corruption
//                         found, 3 transient I/O errors kept the check
//                         from finishing — retry rather than repair)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/env.h"
#include "query/executor.h"
#include "query/scan_kernel.h"
#include "segdiff/segdiff_index.h"
#include "segdiff/transect_index.h"
#include "segment/sliding_window.h"
#include "sql/engine.h"
#include "storage/db.h"
#include "storage/wal.h"
#include "ts/generator.h"
#include "ts/io.h"
#include "ts/smoothing.h"

namespace segdiff {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: segdiff_cli "
               "<generate|build|append|search|stats|sql|segment|compact|"
               "repair|verify|transect> "
               "[--flag value ...]\n"
               "run with a command and no flags to see its options in the "
               "header of tools/segdiff_cli.cc\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Minimal --flag value parser ("--jump"-style booleans have no value).
class Flags {
 public:
  static constexpr const char* kBooleanFlags[] = {
      "--jump", "--no-index", "--no-wal", "--smooth", "--scrub", "--stats"};

  Flags(int argc, char** argv, int start) {
    for (int i = start; i < argc; ++i) {
      std::string key = argv[i];
      bool boolean = false;
      for (const char* name : kBooleanFlags) {
        boolean |= key == name;
      }
      if (boolean) {
        values_[key] = "1";
      } else if (i + 1 < argc) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";
      }
    }
  }

  /// Every numeric flag given must parse whole and in range for its
  /// type; --threads and --max-open become size_t widths, to which a
  /// negative value would wrap as a huge count. Prints the first
  /// offender and returns false (a usage error, exit 2), before any
  /// command opens a store.
  bool NumbersValid() const {
    for (const NumericFlag& flag : kNumericFlags) {
      auto it = values_.find(flag.name);
      if (it == values_.end()) continue;
      const std::string& text = it->second;
      bool valid = false;
      switch (flag.type) {
        case NumberType::kInt:
        case NumberType::kCount:
          valid = ParseNumber<int>(text).has_value();
          break;
        case NumberType::kUint64:
          valid = ParseNumber<uint64_t>(text).has_value();
          break;
        case NumberType::kDouble:
          valid = ParseNumber<double>(text).has_value();
          break;
      }
      if (!valid) {
        std::fprintf(stderr, "%s: '%s' is not a valid %s\n", flag.name,
                     text.c_str(),
                     flag.type == NumberType::kDouble   ? "number"
                     : flag.type == NumberType::kUint64 ? "non-negative integer"
                                                        : "integer");
        return false;
      }
      if (flag.type == NumberType::kCount && *ParseNumber<int>(text) < 0) {
        std::fprintf(stderr, "%s must not be negative\n", flag.name);
        return false;
      }
    }
    return true;
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  // The numeric getters read flags NumbersValid() has checked.
  double GetDouble(const std::string& key, double fallback) const {
    return Number<double>(key, fallback);
  }
  int GetInt(const std::string& key, int fallback) const {
    return Number<int>(key, fallback);
  }
  uint64_t GetUint64(const std::string& key, uint64_t fallback) const {
    return Number<uint64_t>(key, fallback);
  }
  bool Has(const std::string& key) const { return values_.count(key) != 0; }

 private:
  enum class NumberType { kInt, kCount, kUint64, kDouble };
  struct NumericFlag {
    const char* name;
    NumberType type;
  };
  /// Every flag read through GetInt, GetUint64 or GetDouble.
  static constexpr NumericFlag kNumericFlags[] = {
      {"--days", NumberType::kInt},
      {"--limit", NumberType::kInt},
      {"--seed", NumberType::kInt},
      {"--sensor", NumberType::kInt},
      {"--sensors", NumberType::kInt},
      {"--shard-sensors", NumberType::kInt},
      {"--wal-window-ms", NumberType::kInt},
      {"--max-open", NumberType::kCount},
      {"--threads", NumberType::kCount},
      {"--max-mem", NumberType::kUint64},
      {"--timeout-ms", NumberType::kUint64},
      {"--eps", NumberType::kDouble},
      {"--rate-mbps", NumberType::kDouble},
      {"--start-day", NumberType::kDouble},
      {"--t-hours", NumberType::kDouble},
      {"--v", NumberType::kDouble},
      {"--window-hours", NumberType::kDouble},
  };

  template <typename T>
  T Number(const std::string& key, T fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : ParseNumber<T>(it->second).value_or(fallback);
  }

  std::map<std::string, std::string> values_;
};

Result<Series> Smooth(const Series& series) {
  SEGDIFF_ASSIGN_OR_RETURN(Series filtered,
                           HampelFilter(series, HampelOptions{}));
  LoessOptions loess;
  loess.bandwidth_s = 1500.0;
  loess.robust_iterations = 1;
  return RobustLoess(filtered, loess);
}

int CmdGenerate(const Flags& flags) {
  const std::string out = flags.Get("--out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out is required\n");
    return 2;
  }
  CadGeneratorOptions gen;
  gen.num_days = flags.GetInt("--days", 30);
  gen.sensor_index = flags.GetInt("--sensor", 0);
  gen.seed = static_cast<uint64_t>(flags.GetInt("--seed", 20080325));
  // Later chunks of the same logical deployment start at a later day.
  gen.start_time_s = flags.GetDouble("--start-day", 0.0) * 86400.0;
  auto data = GenerateCadSeries(gen);
  if (!data.ok()) return Fail(data.status());
  Series series = std::move(data->series);
  if (flags.Has("--smooth")) {
    auto smoothed = Smooth(series);
    if (!smoothed.ok()) return Fail(smoothed.status());
    series = std::move(smoothed).value();
  }
  if (Status status = WriteSeriesCsv(series, out); !status.ok()) {
    return Fail(status);
  }
  std::printf("wrote %zu observations (%d days, sensor %d, %zu injected "
              "CAD events) to %s\n",
              series.size(), gen.num_days, gen.sensor_index,
              data->drops.size(), out.c_str());
  return 0;
}

int CmdBuild(const Flags& flags) {
  const std::string csv = flags.Get("--csv", "");
  const std::string db = flags.Get("--db", "");
  if (csv.empty() || db.empty()) {
    std::fprintf(stderr, "build: --csv and --db are required\n");
    return 2;
  }
  auto series = ReadSeriesCsv(csv);
  if (!series.ok()) return Fail(series.status());
  Series input = std::move(series).value();
  if (flags.Has("--smooth")) {
    auto smoothed = Smooth(input);
    if (!smoothed.ok()) return Fail(smoothed.status());
    input = std::move(smoothed).value();
  }
  std::remove(db.c_str());
  SegDiffOptions options;
  options.eps = flags.GetDouble("--eps", 0.2);
  options.window_s = flags.GetDouble("--window-hours", 8.0) * 3600.0;
  options.build_indexes = !flags.Has("--no-index");
  options.wal = !flags.Has("--no-wal");
  options.wal_group_commit_ms =
      static_cast<int64_t>(flags.GetInt("--wal-window-ms", 1));
  auto store = SegDiffIndex::Open(db, options);
  if (!store.ok()) return Fail(store.status());
  if (Status status = (*store)->IngestSeries(input); !status.ok()) {
    return Fail(status);
  }
  if (Status status = (*store)->Checkpoint(); !status.ok()) {
    return Fail(status);
  }
  const SegDiffSizes sizes = (*store)->GetSizes();
  std::printf("built %s: %zu observations -> %llu segments (r=%.2f), "
              "%llu feature rows, %.1f KiB features + %.1f KiB indexes\n",
              db.c_str(), input.size(),
              static_cast<unsigned long long>((*store)->num_segments()),
              static_cast<double>(input.size()) /
                  static_cast<double>((*store)->num_segments()),
              static_cast<unsigned long long>(sizes.feature_rows),
              sizes.feature_bytes / 1024.0, sizes.index_bytes / 1024.0);
  return 0;
}

int CmdAppend(const Flags& flags) {
  const std::string csv = flags.Get("--csv", "");
  const std::string db = flags.Get("--db", "");
  if (csv.empty() || db.empty()) {
    std::fprintf(stderr, "append: --csv and --db are required\n");
    return 2;
  }
  auto series = ReadSeriesCsv(csv);
  if (!series.ok()) return Fail(series.status());
  Series input = std::move(series).value();
  if (flags.Has("--smooth")) {
    auto smoothed = Smooth(input);
    if (!smoothed.ok()) return Fail(smoothed.status());
    input = std::move(smoothed).value();
  }
  SegDiffOptions options;  // eps/window/index are adopted from the store
  options.create_if_missing = false;
  options.wal = !flags.Has("--no-wal");
  options.wal_group_commit_ms =
      static_cast<int64_t>(flags.GetInt("--wal-window-ms", 1));
  auto store = SegDiffIndex::Open(db, options);
  if (!store.ok()) return Fail(store.status());
  const uint64_t before = (*store)->num_observations();
  for (const Sample& sample : input) {
    if (Status status = (*store)->AppendObservation(sample.t, sample.v);
        !status.ok()) {
      return Fail(status);
    }
  }
  if (Status status = (*store)->FlushPending(); !status.ok()) {
    return Fail(status);
  }
  if (Status status = (*store)->Checkpoint(); !status.ok()) {
    return Fail(status);
  }
  const SegDiffSizes sizes = (*store)->GetSizes();
  std::printf("appended %zu observations to %s (%llu total, eps=%g): "
              "%llu segments, %llu feature rows\n",
              input.size(), db.c_str(),
              static_cast<unsigned long long>(before + input.size()),
              (*store)->options().eps,
              static_cast<unsigned long long>((*store)->num_segments()),
              static_cast<unsigned long long>(sizes.feature_rows));
  return 0;
}

int CmdSearch(const Flags& flags) {
  const std::string db = flags.Get("--db", "");
  if (db.empty()) {
    std::fprintf(stderr, "search: --db is required\n");
    return 2;
  }
  const double T = flags.GetDouble("--t-hours", 1.0) * 3600.0;
  const bool jump = flags.Has("--jump");
  const double V = flags.GetDouble("--v", jump ? 3.0 : -3.0);
  SegDiffOptions options;  // thresholds are query-time; defaults suffice
  options.create_if_missing = false;
  auto store = SegDiffIndex::Open(db, options);
  if (!store.ok()) return Fail(store.status());

  SearchOptions search;
  const std::string mode = flags.Get("--mode", "seq");
  if (mode == "index") {
    search.mode = QueryMode::kIndexScan;
  } else if (mode == "auto") {
    search.mode = QueryMode::kAuto;
  } else {
    search.mode = QueryMode::kSeqScan;
  }
  if (const uint64_t ms = flags.GetUint64("--timeout-ms", 0); ms > 0) {
    search.deadline = Deadline::AfterMillis(ms);
  }
  search.max_result_bytes = flags.GetUint64("--max-mem", 0);
  search.num_threads = static_cast<size_t>(flags.GetInt("--threads", 0));
  SearchStats stats;
  auto results = jump ? (*store)->SearchJumps(T, V, search, &stats)
                      : (*store)->SearchDrops(T, V, search, &stats);
  if (!results.ok()) return Fail(results.status());

  std::printf("%zu periods with a %s of %s%.2f within %.2f h "
              "(%.2f ms, %llu range queries, mode=%s)%s\n",
              results->size(), jump ? "jump" : "drop", jump ? ">= " : "<= ",
              V, T / 3600.0, stats.seconds * 1e3,
              static_cast<unsigned long long>(stats.queries_issued),
              mode.c_str(), stats.truncated ? " TRUNCATED" : "");
  if (stats.partial) {
    std::printf("  WARNING: partial result — %llu quarantined page%s "
                "skipped (>= %llu rows unreadable); run `verify --scrub` "
                "and `repair`\n",
                static_cast<unsigned long long>(stats.scan.pages_quarantined),
                stats.scan.pages_quarantined == 1 ? "" : "s",
                static_cast<unsigned long long>(stats.scan.rows_quarantined));
  }
  if (flags.Has("--stats")) {
    const ScanStats& scan = stats.scan;
    std::printf("  pages: %llu scanned, %llu pruned (zone maps)\n",
                static_cast<unsigned long long>(scan.pages_scanned),
                static_cast<unsigned long long>(scan.pages_pruned));
    std::printf("  rows:  %llu scanned, %llu pruned, %llu matched, "
                "%llu index entries\n",
                static_cast<unsigned long long>(scan.rows_scanned),
                static_cast<unsigned long long>(scan.rows_pruned),
                static_cast<unsigned long long>(scan.rows_matched),
                static_cast<unsigned long long>(scan.index_entries_scanned));
    std::printf("  kernel: %s\n", ActiveScanKernelName());
    const GovernanceCounters gov =
        (*store)->admission_controller()->counters();
    std::printf("  governance: %llu admitted (%llu queued), %llu rejected, "
                "%llu cancelled, %llu deadline-exceeded, %llu truncated\n",
                static_cast<unsigned long long>(gov.admitted),
                static_cast<unsigned long long>(gov.queued),
                static_cast<unsigned long long>(gov.rejected),
                static_cast<unsigned long long>(gov.cancelled),
                static_cast<unsigned long long>(gov.deadline_exceeded),
                static_cast<unsigned long long>(gov.truncated));
    std::printf("  result bytes peak: %llu, admission wait: %.2f ms\n",
                static_cast<unsigned long long>(stats.result_bytes_peak),
                stats.admission_wait_ms);
  }
  const int limit = flags.GetInt("--limit", 20);
  int shown = 0;
  for (const PairId& pair : *results) {
    if (++shown > limit) {
      std::printf("  ... (%zu more; raise --limit)\n",
                  results->size() - static_cast<size_t>(limit));
      break;
    }
    std::printf("  starts in [%.0f, %.0f]  ends in [%.0f, %.0f]\n",
                pair.t_d, pair.t_c, pair.t_b, pair.t_a);
  }
  return 0;
}

int CmdStats(const Flags& flags) {
  const std::string db = flags.Get("--db", "");
  if (db.empty()) {
    std::fprintf(stderr, "stats: --db is required\n");
    return 2;
  }
  SegDiffOptions options;
  options.create_if_missing = false;
  auto store = SegDiffIndex::Open(db, options);
  if (!store.ok()) return Fail(store.status());
  const SegDiffSizes sizes = (*store)->GetSizes();
  std::printf("store: %s\n", db.c_str());
  std::printf("  segments:      %llu\n",
              static_cast<unsigned long long>((*store)->num_segments()));
  std::printf("  feature rows:  %llu\n",
              static_cast<unsigned long long>(sizes.feature_rows));
  std::printf("  feature bytes: %llu\n",
              static_cast<unsigned long long>(sizes.feature_bytes));
  std::printf("  index bytes:   %llu\n",
              static_cast<unsigned long long>(sizes.index_bytes));
  std::printf("  segment dir:   %llu bytes\n",
              static_cast<unsigned long long>(sizes.segment_dir_bytes));
  std::printf("  file bytes:    %llu\n",
              static_cast<unsigned long long>(sizes.file_bytes));
  const WalInfo wal = (*store)->db()->GetWalInfo();
  if (wal.enabled) {
    std::printf("  wal:           %llu bytes, last lsn %llu, durable lsn "
                "%llu, group-commit window %lld ms\n",
                static_cast<unsigned long long>(wal.size_bytes),
                static_cast<unsigned long long>(wal.last_lsn),
                static_cast<unsigned long long>(wal.durable_lsn),
                static_cast<long long>(wal.group_commit_ms));
    std::printf("  checkpoint:    applied lsn %llu; last open replayed "
                "%llu record%s, trimmed %llu torn-tail byte%s\n",
                static_cast<unsigned long long>(wal.applied_lsn),
                static_cast<unsigned long long>(wal.recovered_records),
                wal.recovered_records == 1 ? "" : "s",
                static_cast<unsigned long long>(wal.trimmed_tail_bytes),
                wal.trimmed_tail_bytes == 1 ? "" : "s");
  } else {
    std::printf("  wal:           disabled (checkpoint-only durability); "
                "applied lsn %llu\n",
                static_cast<unsigned long long>(wal.applied_lsn));
  }
  const StoreHealth health = (*store)->db()->GetHealth();
  if (health.degraded) {
    std::printf("  health:        DEGRADED (read-only): %s\n",
                health.degraded_reason.c_str());
  } else {
    std::printf("  health:        ok\n");
  }
  if (health.quarantined_pages > 0 || health.pool_read_failures > 0) {
    std::printf("  quarantine:    %llu page%s unreadable (%llu pool read "
                "failure%s); searches skip them and flag results partial — "
                "run `repair` to salvage into a fresh store\n",
                static_cast<unsigned long long>(health.quarantined_pages),
                health.quarantined_pages == 1 ? "" : "s",
                static_cast<unsigned long long>(health.pool_read_failures),
                health.pool_read_failures == 1 ? "" : "s");
  }
  // Per-table page-format breakdown: compacted stores keep their
  // feature rows in compressed columnar segments; uncompacted (or
  // still-ingesting) tables are pure row format.
  std::printf("  tables (row pages / columnar segments):\n");
  for (const auto& table : (*store)->db()->tables()) {
    const Table::FormatBreakdown b = table->GetFormatBreakdown();
    std::printf("    %-14s row: %llu pages, %llu rows", table->name().c_str(),
                static_cast<unsigned long long>(b.row_pages),
                static_cast<unsigned long long>(b.row_rows));
    if (b.columnar_segments > 0) {
      const double ratio =
          b.columnar_encoded_bytes > 0
              ? static_cast<double>(b.columnar_logical_bytes) /
                    static_cast<double>(b.columnar_encoded_bytes)
              : 0.0;
      std::printf(
          "; columnar: %llu segments, %llu pages, %llu rows, "
          "%llu -> %llu bytes (%.2fx)",
          static_cast<unsigned long long>(b.columnar_segments),
          static_cast<unsigned long long>(b.columnar_pages),
          static_cast<unsigned long long>(b.columnar_rows),
          static_cast<unsigned long long>(b.columnar_logical_bytes),
          static_cast<unsigned long long>(b.columnar_encoded_bytes), ratio);
    }
    std::printf("\n");
  }
  return 0;
}

int CmdSql(const Flags& flags) {
  const std::string db = flags.Get("--db", "");
  if (db.empty()) {
    std::fprintf(stderr, "sql: --db is required\n");
    return 2;
  }
  DatabaseOptions options;
  options.create_if_missing = false;
  auto database = Database::Open(db, options);
  if (!database.ok()) return Fail(database.status());
  sql::Engine engine(database->get());
  engine.set_statement_timeout_ms(flags.GetUint64("--timeout-ms", 0));

  const std::string query = flags.Get("--query", "");
  if (!query.empty()) {
    auto result = engine.Execute(query);
    if (!result.ok()) return Fail(result.status());
    std::fputs(sql::FormatResult(*result).c_str(), stdout);
  } else {
    // REPL: one statement per line; errors don't end the session.
    std::fprintf(stderr, "segdiff sql> (one statement per line; ctrl-d or "
                         "'quit' to exit)\n");
    char buf[4096];
    while (std::fgets(buf, sizeof(buf), stdin) != nullptr) {
      std::string line = buf;
      while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
        line.pop_back();
      }
      if (line.empty()) continue;
      if (line == "quit" || line == "exit") break;
      auto result = engine.Execute(line);
      if (!result.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     result.status().ToString().c_str());
        continue;
      }
      std::fputs(sql::FormatResult(*result).c_str(), stdout);
    }
  }
  if (Status status = (*database)->Checkpoint(); !status.ok()) {
    return Fail(status);
  }
  return 0;
}

int CmdSegment(const Flags& flags) {
  const std::string csv = flags.Get("--csv", "");
  const std::string out = flags.Get("--out", "");
  if (csv.empty() || out.empty()) {
    std::fprintf(stderr, "segment: --csv and --out are required\n");
    return 2;
  }
  auto series = ReadSeriesCsv(csv);
  if (!series.ok()) return Fail(series.status());
  Series input = std::move(series).value();
  if (flags.Has("--smooth")) {
    auto smoothed = Smooth(input);
    if (!smoothed.ok()) return Fail(smoothed.status());
    input = std::move(smoothed).value();
  }
  const double eps = flags.GetDouble("--eps", 0.2);
  auto pla = SegmentSeriesWithTolerance(input, eps);
  if (!pla.ok()) return Fail(pla.status());
  FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    return Fail(Status::IOError("cannot open " + out));
  }
  std::fprintf(f, "# t_start,v_start,t_end,v_end (eps=%g)\n", eps);
  for (const DataSegment& segment : pla->segments()) {
    std::fprintf(f, "%.17g,%.17g,%.17g,%.17g\n", segment.start.t,
                 segment.start.v, segment.end.t, segment.end.v);
  }
  std::fclose(f);
  std::printf("segmented %zu observations into %zu segments (r=%.2f) -> %s\n",
              input.size(), pla->size(),
              pla->CompressionRate(input.size()), out.c_str());
  return 0;
}

int CmdCompact(const Flags& flags) {
  const std::string db = flags.Get("--db", "");
  const std::string out = flags.Get("--out", "");
  if (db.empty() || out.empty()) {
    std::fprintf(stderr, "compact: --db and --out are required\n");
    return 2;
  }
  std::remove(out.c_str());
  DatabaseOptions options;
  options.create_if_missing = false;
  auto database = Database::Open(db, options);
  if (!database.ok()) return Fail(database.status());
  if (Status status = (*database)->CompactInto(out); !status.ok()) {
    return Fail(status);
  }
  auto compacted = Database::Open(out, DatabaseOptions{});
  if (!compacted.ok()) return Fail(compacted.status());
  std::printf("compacted %llu -> %llu bytes (%s -> %s)\n",
              static_cast<unsigned long long>(
                  (*database)->pager()->FileSizeBytes()),
              static_cast<unsigned long long>(
                  (*compacted)->pager()->FileSizeBytes()),
              db.c_str(), out.c_str());
  return 0;
}

int CmdRepair(const Flags& flags) {
  const std::string db = flags.Get("--db", "");
  const std::string out = flags.Get("--out", "");
  if (db.empty() || out.empty()) {
    std::fprintf(stderr, "repair: --db and --out are required\n");
    return 2;
  }
  std::remove(out.c_str());
  std::remove((out + ".wal").c_str());

  RepairReport report;
  Status repaired;
  // Prefer the engine open: it replays the WAL tail and drains the
  // recovered observation backlog, so acknowledged-but-unapplied writes
  // survive into the repaired copy. Abandon the source afterwards —
  // repair must never write to the damaged store.
  SegDiffOptions engine_options;
  engine_options.create_if_missing = false;
  if (auto store = SegDiffIndex::Open(db, engine_options); store.ok()) {
    repaired = (*store)->Repair(out, &report);
    (*store)->db()->Abandon();
  } else {
    // The engine state is unreadable; salvage at the database layer.
    repaired = Database::RepairFile(db, out, DatabaseOptions{}, &report);
  }
  if (!repaired.ok()) return Fail(repaired);
  std::printf("repaired %s -> %s\n", db.c_str(), out.c_str());
  std::printf("  %llu table%s, %llu row%s salvaged\n",
              static_cast<unsigned long long>(report.tables),
              report.tables == 1 ? "" : "s",
              static_cast<unsigned long long>(report.rows_salvaged),
              report.rows_salvaged == 1 ? "" : "s");
  if (report.pages_skipped > 0 || report.rows_lost > 0) {
    std::printf("  skipped %llu corrupt page%s (>= %llu row%s lost)\n",
                static_cast<unsigned long long>(report.pages_skipped),
                report.pages_skipped == 1 ? "" : "s",
                static_cast<unsigned long long>(report.rows_lost),
                report.rows_lost == 1 ? "" : "s");
  } else {
    std::printf("  nothing was lost\n");
  }
  return 0;
}

/// Verify's exit contract: 2 = the store is damaged (corruption), 3 =
/// transient I/O kept the check from finishing (retry, don't repair),
/// 1 = any other failure.
int VerifyExitCode(const Status& status) {
  if (status.IsTransient()) return 3;
  if (status.IsCorruption()) return 2;
  return 1;
}

/// Deployment-level knobs shared by the transect subcommands.
TransectOptions TransectFlags(const Flags& flags) {
  TransectOptions options;
  options.store.eps = flags.GetDouble("--eps", 0.2);
  options.store.window_s = flags.GetDouble("--window-hours", 8.0) * 3600.0;
  options.store.build_indexes = !flags.Has("--no-index");
  options.store.wal = !flags.Has("--no-wal");
  // Every open store owns its own buffer pool; transects keep them
  // small so a wide-open cache stays in memory budget.
  options.store.buffer_pool_pages = 128;
  options.sensors_per_shard = flags.GetInt("--shard-sensors", 0);
  options.max_open_stores =
      static_cast<size_t>(flags.GetInt("--max-open", 0));
  return options;
}

void PrintCacheStats(const TransectIndex& transect) {
  const StoreLruStats cache = transect.store_stats();
  std::printf("  store cache: %zu open (peak %zu), %llu opens, "
              "%llu evictions, %llu hits\n",
              cache.open, cache.peak_open,
              static_cast<unsigned long long>(cache.opens),
              static_cast<unsigned long long>(cache.evictions),
              static_cast<unsigned long long>(cache.hits));
  if (cache.eviction_failures > 0) {
    std::printf("  WARNING: %llu eviction checkpoint failure%s (surfaced "
                "on the affected sensors' next use)\n",
                static_cast<unsigned long long>(cache.eviction_failures),
                cache.eviction_failures == 1 ? "" : "s");
  }
}

/// One line per recorded sweep issue (both sweeps cap their lists; the
/// counters above them stay exact).
void PrintSweepIssues(const std::vector<TransectSensorIssue>& issues) {
  for (const TransectSensorIssue& issue : issues) {
    std::printf("  sensor %-5d %s%s\n", issue.sensor,
                issue.corrupt ? "CORRUPT: "
                              : (issue.transient ? "UNAVAILABLE: " : ""),
                issue.message.c_str());
  }
}

int CmdTransectBuild(const Flags& flags) {
  const std::string dir = flags.Get("--dir", "");
  const int sensors = flags.GetInt("--sensors", 0);
  if (dir.empty() || sensors <= 0) {
    std::fprintf(stderr,
                 "transect build: --dir and --sensors are required\n");
    return 2;
  }
  auto transect = TransectIndex::Open(dir, sensors, TransectFlags(flags));
  if (!transect.ok()) return Fail(transect.status());

  CadGeneratorOptions gen;
  gen.num_days = flags.GetInt("--days", 7);
  gen.seed = static_cast<uint64_t>(flags.GetInt("--seed", 20080325));
  auto data = GenerateCadTransect(gen, sensors);
  if (!data.ok()) return Fail(data.status());
  std::vector<Series> all_series;
  uint64_t observations = 0;
  for (auto& sensor : *data) {
    observations += sensor.series.size();
    all_series.push_back(std::move(sensor.series));
  }
  const size_t threads =
      static_cast<size_t>(flags.GetInt("--threads", 4));
  if (Status status = (*transect)->IngestAllSensors(all_series, threads);
      !status.ok()) {
    return Fail(status);
  }
  if (Status status = (*transect)->Checkpoint(); !status.ok()) {
    return Fail(status);
  }
  auto sizes = (*transect)->GetSizes();
  if (!sizes.ok()) return Fail(sizes.status());
  std::printf("built transect %s: %d sensors in %zu shards, %llu "
              "observations, %llu feature rows, %.1f MiB on disk\n",
              dir.c_str(), sensors, (*transect)->catalog().shard_count(),
              static_cast<unsigned long long>(observations),
              static_cast<unsigned long long>(sizes->feature_rows),
              sizes->file_bytes / (1024.0 * 1024.0));
  PrintCacheStats(**transect);
  return 0;
}

int CmdTransectSearch(const Flags& flags) {
  const std::string dir = flags.Get("--dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "transect search: --dir is required\n");
    return 2;
  }
  TransectOptions options = TransectFlags(flags);
  options.store.create_if_missing = false;
  // 0 sensors: adopt the catalog's persisted count.
  auto transect = TransectIndex::Open(dir, flags.GetInt("--sensors", 0),
                                      options);
  if (!transect.ok()) return Fail(transect.status());

  const double T = flags.GetDouble("--t-hours", 1.0) * 3600.0;
  const bool jump = flags.Has("--jump");
  const double V = flags.GetDouble("--v", jump ? 3.0 : -3.0);
  SearchOptions search;
  if (const uint64_t ms = flags.GetUint64("--timeout-ms", 0); ms > 0) {
    search.deadline = Deadline::AfterMillis(ms);
  }
  search.num_threads = static_cast<size_t>(flags.GetInt("--threads", 4));
  TransectSearchStats stats;
  auto hits = jump ? (*transect)->SearchJumps(T, V, search, &stats)
                   : (*transect)->SearchDrops(T, V, search, &stats);
  if (!hits.ok()) return Fail(hits.status());

  int sensors_hit = 0;
  int last_sensor = -1;
  for (const TransectHit& hit : *hits) {
    if (hit.sensor != last_sensor) {
      ++sensors_hit;
      last_sensor = hit.sensor;
    }
  }
  std::printf("%zu periods on %d of %d sensors with a %s of %s%.2f within "
              "%.2f h (%.2f ms wall, fan-out %zu)%s\n",
              hits->size(), sensors_hit, (*transect)->sensor_count(),
              jump ? "jump" : "drop", jump ? ">= " : "<= ", V, T / 3600.0,
              stats.seconds * 1e3, stats.fan_out,
              stats.truncated ? " TRUNCATED" : "");
  if (stats.partial) {
    std::printf("  WARNING: partial result — %llu quarantined page%s "
                "skipped (>= %llu rows unreadable); run `transect verify` "
                "and `transect repair` to diagnose and salvage\n",
                static_cast<unsigned long long>(stats.scan.pages_quarantined),
                stats.scan.pages_quarantined == 1 ? "" : "s",
                static_cast<unsigned long long>(stats.scan.rows_quarantined));
  }
  if (stats.sensors_failed > 0 || stats.sensors_skipped > 0) {
    std::printf("  WARNING: %llu sensor%s skipped (store would not open) "
                "and %llu failed mid-search — their periods are missing "
                "from the result\n",
                static_cast<unsigned long long>(stats.sensors_skipped),
                stats.sensors_skipped == 1 ? "" : "s",
                static_cast<unsigned long long>(stats.sensors_failed));
    for (const TransectSensorFailure& failure : stats.failures) {
      std::printf("    sensor %-5d %s\n", failure.sensor,
                  failure.status.ToString().c_str());
    }
  }
  if (stats.sensors_degraded > 0) {
    std::printf("  note: %llu sensor%s answered in degraded (read-only) "
                "mode\n",
                static_cast<unsigned long long>(stats.sensors_degraded),
                stats.sensors_degraded == 1 ? "" : "s");
  }
  if (flags.Has("--stats")) {
    std::printf("  pages: %llu scanned, %llu pruned; rows: %llu scanned, "
                "%llu matched; %llu range queries\n",
                static_cast<unsigned long long>(stats.scan.pages_scanned),
                static_cast<unsigned long long>(stats.scan.pages_pruned),
                static_cast<unsigned long long>(stats.scan.rows_scanned),
                static_cast<unsigned long long>(stats.scan.rows_matched),
                static_cast<unsigned long long>(stats.queries_issued));
    PrintCacheStats(**transect);
  }
  const int limit = flags.GetInt("--limit", 20);
  int shown = 0;
  for (const TransectHit& hit : *hits) {
    if (++shown > limit) {
      std::printf("  ... (%zu more; raise --limit)\n",
                  hits->size() - static_cast<size_t>(limit));
      break;
    }
    std::printf("  sensor %-5d starts in [%.0f, %.0f]  ends in [%.0f, "
                "%.0f]\n",
                hit.sensor, hit.pair.t_d, hit.pair.t_c, hit.pair.t_b,
                hit.pair.t_a);
  }
  return 0;
}

int CmdTransectStats(const Flags& flags) {
  const std::string dir = flags.Get("--dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "transect stats: --dir is required\n");
    return 2;
  }
  TransectOptions options = TransectFlags(flags);
  options.store.create_if_missing = false;
  auto transect = TransectIndex::Open(dir, 0, options);
  if (!transect.ok()) return Fail(transect.status());
  const ShardCatalog& catalog = (*transect)->catalog();
  std::printf("transect: %s\n", dir.c_str());
  std::printf("  sensors:       %d in %zu shards (%d per shard)\n",
              catalog.sensor_count(), catalog.shard_count(),
              catalog.sensors_per_shard());
  // Sizes open every store, so a damaged sensor fails them — keep going
  // and let the health sweep below name the culprit and set the exit
  // code.
  auto sizes = (*transect)->GetSizes();
  if (sizes.ok()) {
    std::printf("  feature rows:  %llu\n",
                static_cast<unsigned long long>(sizes->feature_rows));
    std::printf("  feature bytes: %llu\n",
                static_cast<unsigned long long>(sizes->feature_bytes));
    std::printf("  index bytes:   %llu\n",
                static_cast<unsigned long long>(sizes->index_bytes));
    std::printf("  file bytes:    %llu\n",
                static_cast<unsigned long long>(sizes->file_bytes));
  } else {
    std::printf("  sizes:         unavailable (%s)\n",
                sizes.status().ToString().c_str());
  }
  PrintCacheStats(**transect);

  // Health block: a full scrub sweep, reported with verify's exit
  // contract so scripts can branch on damaged vs. flaky transects.
  auto health = (*transect)->Verify();
  if (!health.ok()) {
    Fail(health.status());
    return VerifyExitCode(health.status());
  }
  std::printf("  health:        %d/%d sensors scanned, %d corrupt, "
              "%d degraded, %d unavailable, %llu quarantined page%s\n",
              health->sensors_scanned, health->sensors_total,
              health->sensors_corrupt, health->sensors_degraded,
              health->sensors_unavailable,
              static_cast<unsigned long long>(health->quarantined_pages),
              health->quarantined_pages == 1 ? "" : "s");
  PrintSweepIssues(health->issues);
  if (health->sensors_corrupt > 0) return 2;
  if (health->sensors_unavailable > 0) return 3;
  return 0;
}

/// Bytes/sec sweep throttle from --rate-mbps (0 = unlimited).
TransectVerifyOptions SweepFlags(const Flags& flags) {
  TransectVerifyOptions options;
  options.rate_limit_bytes_per_sec = static_cast<uint64_t>(
      flags.GetDouble("--rate-mbps", 0.0) * 1024.0 * 1024.0);
  return options;
}

int CmdTransectVerify(const Flags& flags) {
  const std::string dir = flags.Get("--dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "transect verify: --dir is required\n");
    return 2;
  }
  TransectOptions options = TransectFlags(flags);
  options.store.create_if_missing = false;
  auto transect = TransectIndex::Open(dir, 0, options);
  if (!transect.ok()) {
    Fail(transect.status());
    return VerifyExitCode(transect.status());
  }
  auto report = (*transect)->Verify(SweepFlags(flags));
  if (!report.ok()) {
    Fail(report.status());
    return VerifyExitCode(report.status());
  }
  std::printf("transect verify: %d/%d sensors scanned, %llu pages checked "
              "(%.1f MiB)\n",
              report->sensors_scanned, report->sensors_total,
              static_cast<unsigned long long>(report->pages_checked),
              report->bytes_scanned / (1024.0 * 1024.0));
  std::printf("  %d corrupt, %d degraded, %d unavailable; %llu corrupt "
              "page%s, %llu quarantined\n",
              report->sensors_corrupt, report->sensors_degraded,
              report->sensors_unavailable,
              static_cast<unsigned long long>(report->pages_corrupt),
              report->pages_corrupt == 1 ? "" : "s",
              static_cast<unsigned long long>(report->quarantined_pages));
  PrintSweepIssues(report->issues);
  if (report->sensors_corrupt > 0) {
    std::printf("transect verify: FAILED — run `transect repair`\n");
    return 2;
  }
  if (report->sensors_unavailable > 0) {
    std::printf("transect verify: INCOMPLETE (transient I/O — retry)\n");
    return 3;
  }
  std::printf("transect verify: ok\n");
  return 0;
}

int CmdTransectRepair(const Flags& flags) {
  const std::string dir = flags.Get("--dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "transect repair: --dir is required\n");
    return 2;
  }
  TransectOptions options = TransectFlags(flags);
  options.store.create_if_missing = false;
  auto transect = TransectIndex::Open(dir, 0, options);
  if (!transect.ok()) {
    Fail(transect.status());
    return VerifyExitCode(transect.status());
  }
  auto report = (*transect)->RepairAll(SweepFlags(flags));
  if (!report.ok()) {
    Fail(report.status());
    return VerifyExitCode(report.status());
  }
  std::printf("transect repair: %d sensors checked, %d repaired, %d "
              "failed\n",
              report->sensors_checked, report->sensors_repaired,
              report->sensors_failed);
  if (report->sensors_repaired > 0) {
    std::printf("  salvaged %llu row%s; skipped %llu corrupt page%s "
                "(>= %llu row%s lost)\n",
                static_cast<unsigned long long>(report->totals.rows_salvaged),
                report->totals.rows_salvaged == 1 ? "" : "s",
                static_cast<unsigned long long>(report->totals.pages_skipped),
                report->totals.pages_skipped == 1 ? "" : "s",
                static_cast<unsigned long long>(report->totals.rows_lost),
                report->totals.rows_lost == 1 ? "" : "s");
  }
  PrintSweepIssues(report->issues);
  return report->sensors_failed > 0 ? 2 : 0;
}

int CmdTransectRebalance(const Flags& flags) {
  const std::string dir = flags.Get("--dir", "");
  const int sensors_per_shard = flags.GetInt("--shard-sensors", 0);
  if (dir.empty() || sensors_per_shard <= 0) {
    std::fprintf(stderr,
                 "transect rebalance: --dir and --shard-sensors are "
                 "required\n");
    return 2;
  }
  TransectOptions options = TransectFlags(flags);
  options.store.create_if_missing = false;
  options.sensors_per_shard = 0;  // adopt the persisted layout on open
  auto transect = TransectIndex::Open(dir, 0, options);
  if (!transect.ok()) return Fail(transect.status());
  const int before = (*transect)->catalog().sensors_per_shard();
  if (Status status = (*transect)->Rebalance(sensors_per_shard);
      !status.ok()) {
    return Fail(status);
  }
  std::printf("rebalanced %s: %d -> %d sensors per shard (%zu shards)\n",
              dir.c_str(), before,
              (*transect)->catalog().sensors_per_shard(),
              (*transect)->catalog().shard_count());
  return 0;
}

int CmdTransect(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: segdiff_cli transect "
                 "<build|search|stats|verify|repair|rebalance> "
                 "--dir DIR [--flag value ...]\n");
    return 2;
  }
  const std::string action = argv[2];
  const Flags flags(argc, argv, 3);
  if (!flags.NumbersValid()) return 2;
  if (action == "build") return CmdTransectBuild(flags);
  if (action == "search") return CmdTransectSearch(flags);
  if (action == "stats") return CmdTransectStats(flags);
  if (action == "verify") return CmdTransectVerify(flags);
  if (action == "repair") return CmdTransectRepair(flags);
  if (action == "rebalance") return CmdTransectRebalance(flags);
  std::fprintf(stderr, "transect: unknown action '%s'\n", action.c_str());
  return 2;
}

int CmdVerify(const Flags& flags) {
  const std::string db = flags.Get("--db", "");
  if (db.empty()) {
    std::fprintf(stderr, "verify: --db is required\n");
    return 2;
  }
  DatabaseOptions options;
  options.create_if_missing = false;
  auto database = Database::Open(db, options);
  if (!database.ok()) {
    Fail(database.status());
    return VerifyExitCode(database.status());
  }
  // Verification is strictly read-only: closing must not rewrite even
  // the header of a store we just diagnosed as damaged (WAL replay at
  // open touched only in-memory state; Abandon discards it).
  (*database)->Abandon();
  std::printf("store: %s (format v%u)\n", db.c_str(),
              Pager::kFormatChecksummed);

  // Logical check: each table's heap metadata agrees with what a full
  // scan actually returns (a torn append would break this).
  int failures = 0;
  int transient_failures = 0;
  for (const auto& table : (*database)->tables()) {
    // A row callback (not a count-only scan) makes the scan decode every
    // column of every columnar segment.
    uint64_t scanned = 0;
    Status scan = SeqScan(*table, Predicate::True(),
                          [&scanned](const char*, RecordId) -> Status {
                            ++scanned;
                            return Status::OK();
                          });
    if (!scan.ok()) {
      std::printf("  table %-10s UNREADABLE: %s\n", table->name().c_str(),
                  scan.ToString().c_str());
      if (scan.IsTransient()) {
        ++transient_failures;
      } else {
        ++failures;
      }
    } else if (scanned != table->row_count()) {
      std::printf("  table %-10s BAD: scanned %llu rows, metadata says "
                  "%llu\n",
                  table->name().c_str(),
                  static_cast<unsigned long long>(scanned),
                  static_cast<unsigned long long>(table->row_count()));
      ++failures;
    } else {
      std::printf("  table %-10s ok (%llu rows)\n", table->name().c_str(),
                  static_cast<unsigned long long>(scanned));
    }
  }

  if (flags.Has("--scrub")) {
    auto report = (*database)->Scrub();
    if (!report.ok()) {
      Fail(report.status());
      return VerifyExitCode(report.status());
    }
    std::printf("scrub: %llu pages checked, %zu corrupt\n",
                static_cast<unsigned long long>(report->pages_checked),
                report->corrupt.size());
    for (const ScrubIssue& issue : report->corrupt) {
      std::printf("  page %llu: %s\n",
                  static_cast<unsigned long long>(issue.page),
                  issue.message.c_str());
      ++failures;
    }
    // The write-ahead log is part of the store: walk every frame. A torn
    // tail is healthy (an interrupted group commit; recovery trims it),
    // but a bad header or a mid-log CRC mismatch is damage.
    const WalScrubReport wal =
        Wal::Scrub((*database)->pager()->vfs(), db);
    if (!wal.exists) {
      std::printf("wal scrub: no log (checkpoint-only store)\n");
    } else {
      std::printf("wal scrub: %llu bytes, %llu frames (lsn %llu..%llu)\n",
                  static_cast<unsigned long long>(wal.bytes),
                  static_cast<unsigned long long>(wal.frames),
                  static_cast<unsigned long long>(wal.start_lsn),
                  static_cast<unsigned long long>(wal.last_lsn));
      if (wal.torn_tail) {
        std::printf("  torn tail: %llu byte%s past the last valid frame "
                    "(healthy — trimmed on next open)\n",
                    static_cast<unsigned long long>(wal.torn_tail_bytes),
                    wal.torn_tail_bytes == 1 ? "" : "s");
      }
      if (wal.corrupt) {
        std::printf("  wal CORRUPT: %s\n", wal.message.c_str());
        ++failures;
      }
    }
  }

  if (failures > 0) {
    std::printf("verify: FAILED (%d problem%s)\n", failures,
                failures == 1 ? "" : "s");
    return 2;
  }
  if (transient_failures > 0) {
    std::printf("verify: INCOMPLETE (%d transient I/O failure%s — retry)\n",
                transient_failures, transient_failures == 1 ? "" : "s");
    return 3;
  }
  std::printf("verify: ok\n");
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  if (command == "transect") return CmdTransect(argc, argv);
  const Flags flags(argc, argv, 2);
  if (!flags.NumbersValid()) return 2;
  if (command == "generate") return CmdGenerate(flags);
  if (command == "build") return CmdBuild(flags);
  if (command == "append") return CmdAppend(flags);
  if (command == "search") return CmdSearch(flags);
  if (command == "stats") return CmdStats(flags);
  if (command == "sql") return CmdSql(flags);
  if (command == "segment") return CmdSegment(flags);
  if (command == "compact") return CmdCompact(flags);
  if (command == "repair") return CmdRepair(flags);
  if (command == "verify") return CmdVerify(flags);
  return Usage();
}

}  // namespace
}  // namespace segdiff

int main(int argc, char** argv) { return segdiff::Run(argc, argv); }
