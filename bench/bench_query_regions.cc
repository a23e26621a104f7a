// Reproduces the random-query-region experiments (Section 6.4,
// Figures 16-24): a grid of (T, V) queries over feature space,
// measuring per-query time for Exh and SegDiff, sequential scan and
// index access, with warm cache (Figs 17-22) and cold cache
// (Figs 23-24), plus the coverage (result count) of each query region
// (Fig 16) and the hard-query boundary. A last column compacts the
// SegDiff store and compares warm kAuto searches on the columnar copy
// against its row source, cell by cell.

#include <algorithm>
#include <functional>
#include <iostream>
#include <vector>

#include "benchutil/report.h"
#include "benchutil/workload.h"
#include "common/logging.h"
#include "segdiff/exh_index.h"
#include "segdiff/segdiff_index.h"

namespace segdiff {
namespace {

const double kTHours[] = {1, 2, 4, 6, 8};
const double kVDegrees[] = {-1, -2, -4, -6, -9, -12};

struct Grid {
  double cell[6][5] = {};
};

void PrintGrid(std::ostream& os, const std::string& title, const Grid& grid,
               int precision, const char* unit) {
  PrintBanner(os, title);
  std::vector<std::string> headers = {"V \\ T(h)"};
  for (double t : kTHours) {
    headers.push_back(Fmt(t, 0) + "h");
  }
  TablePrinter table(headers);
  for (int vi = 0; vi < 6; ++vi) {
    std::vector<std::string> row = {Fmt(kVDegrees[vi], 0) + "C"};
    for (int ti = 0; ti < 5; ++ti) {
      row.push_back(Fmt(grid.cell[vi][ti], precision));
    }
    table.AddRow(row);
  }
  table.Print(os);
  os << "(" << unit << ")\n";
}

int RunBench() {
  const WorkloadConfig config = WorkloadConfig::FromEnv();
  const DiskSim disk = DiskSim::FromEnv();
  auto series_or = MakeSmoothedBenchSeries(config);
  SEGDIFF_CHECK(series_or.ok()) << series_or.status().ToString();
  const Series& series = *series_or;
  std::cout << "workload: " << series.size() << " observations; "
            << "query grid: T x V = 5 x 6\n";

  const std::string seg_path = BenchDbPath("regions_segdiff");
  SegDiffOptions options;
  options.eps = PaperDefaults::kEps;
  options.window_s = PaperDefaults::kWindowS;
  options.sim_seq_read_ns = disk.seq_ns;
  options.sim_random_read_ns = disk.random_ns;
  auto seg = SegDiffIndex::Open(seg_path, options);
  SEGDIFF_CHECK(seg.ok());
  SEGDIFF_CHECK_OK((*seg)->IngestSeries(series));

  // The compacted copy: columnar feature tables, no B+-trees, so kAuto
  // runs every query as part of one pass per feature table.
  const std::string col_path = BenchDbPath("regions_segdiff_compact");
  SEGDIFF_CHECK_OK((*seg)->Compact(col_path));
  SegDiffOptions col_options = options;
  col_options.create_if_missing = false;
  auto col = SegDiffIndex::Open(col_path, col_options);
  SEGDIFF_CHECK(col.ok()) << col.status().ToString();

  const std::string exh_path = BenchDbPath("regions_exh");
  ExhOptions exh_options;
  exh_options.window_s = PaperDefaults::kWindowS;
  exh_options.sim_seq_read_ns = disk.seq_ns;
  exh_options.sim_random_read_ns = disk.random_ns;
  auto exh = ExhIndex::Open(exh_path, exh_options);
  SEGDIFF_CHECK(exh.ok());
  SEGDIFF_CHECK_OK((*exh)->IngestSeries(series));

  Grid coverage_seg;
  Grid coverage_exh;
  Grid seg_seq_warm, seg_idx_warm, exh_seq_warm, exh_idx_warm;
  Grid seg_seq_cold, seg_idx_cold, exh_seq_cold, exh_idx_cold;
  Grid auto_row_warm, auto_col_warm;

  SearchOptions seq;
  seq.mode = QueryMode::kSeqScan;
  SearchOptions idx;
  idx.mode = QueryMode::kIndexScan;
  SearchOptions automatic;
  automatic.mode = QueryMode::kAuto;

  auto run = [&](bool cold, const SearchOptions& mode, auto& system,
                 double T, double V, double* count) {
    if (cold) {
      SEGDIFF_CHECK_OK(system->DropCaches());
    }
    SearchStats stats;
    auto result = system->SearchDrops(T, V, mode, &stats);
    SEGDIFF_CHECK(result.ok()) << result.status().ToString();
    if (count != nullptr) {
      *count = static_cast<double>(result->size());
    }
    return stats.seconds * 1e3;
  };

  for (int vi = 0; vi < 6; ++vi) {
    for (int ti = 0; ti < 5; ++ti) {
      const double T = kTHours[ti] * kHourSeconds;
      const double V = kVDegrees[vi];
      // Warm pass: prime the cache with one run, then measure.
      run(false, seq, *seg, T, V, nullptr);
      seg_seq_warm.cell[vi][ti] =
          run(false, seq, *seg, T, V, &coverage_seg.cell[vi][ti]);
      run(false, idx, *seg, T, V, nullptr);
      seg_idx_warm.cell[vi][ti] = run(false, idx, *seg, T, V, nullptr);
      run(false, seq, *exh, T, V, nullptr);
      exh_seq_warm.cell[vi][ti] =
          run(false, seq, *exh, T, V, &coverage_exh.cell[vi][ti]);
      run(false, idx, *exh, T, V, nullptr);
      exh_idx_warm.cell[vi][ti] = run(false, idx, *exh, T, V, nullptr);
      // Compacted copy vs row source under kAuto, warm: best of three
      // after a priming run, so one noisy sample cannot flip a cell.
      run(false, automatic, *seg, T, V, nullptr);
      run(false, automatic, *col, T, V, nullptr);
      auto_row_warm.cell[vi][ti] = auto_col_warm.cell[vi][ti] = 1e300;
      for (int rep = 0; rep < 3; ++rep) {
        auto_row_warm.cell[vi][ti] = std::min(
            auto_row_warm.cell[vi][ti], run(false, automatic, *seg, T, V,
                                            nullptr));
        auto_col_warm.cell[vi][ti] = std::min(
            auto_col_warm.cell[vi][ti], run(false, automatic, *col, T, V,
                                            nullptr));
      }
      // Cold pass.
      seg_seq_cold.cell[vi][ti] = run(true, seq, *seg, T, V, nullptr);
      seg_idx_cold.cell[vi][ti] = run(true, idx, *seg, T, V, nullptr);
      exh_seq_cold.cell[vi][ti] = run(true, seq, *exh, T, V, nullptr);
      exh_idx_cold.cell[vi][ti] = run(true, idx, *exh, T, V, nullptr);
    }
  }

  PrintGrid(std::cout, "Figure 16: coverage of queries (SegDiff pairs "
                       "returned; hard region = top right)",
            coverage_seg, 0, "pairs");
  PrintGrid(std::cout, "Figure 16 (baseline): Exh events returned",
            coverage_exh, 0, "events");
  PrintGrid(std::cout, "Figure 17: Exh sequential scan, warm cache",
            exh_seq_warm, 2, "ms");
  PrintGrid(std::cout, "Figure 18: SegDiff sequential scan, warm cache",
            seg_seq_warm, 2, "ms");
  PrintGrid(std::cout, "Figure 19: Exh index access, warm cache",
            exh_idx_warm, 2, "ms");
  PrintGrid(std::cout, "Figure 20: SegDiff index access, warm cache",
            seg_idx_warm, 2, "ms");

  Grid ratio_seq_warm, ratio_idx_warm, ratio_seq_cold, ratio_idx_cold;
  double mean_seq_warm = 0, mean_idx_warm = 0, mean_seq_cold = 0,
         mean_idx_cold = 0;
  for (int vi = 0; vi < 6; ++vi) {
    for (int ti = 0; ti < 5; ++ti) {
      ratio_seq_warm.cell[vi][ti] =
          exh_seq_warm.cell[vi][ti] / seg_seq_warm.cell[vi][ti];
      ratio_idx_warm.cell[vi][ti] =
          exh_idx_warm.cell[vi][ti] / seg_idx_warm.cell[vi][ti];
      ratio_seq_cold.cell[vi][ti] =
          exh_seq_cold.cell[vi][ti] / seg_seq_cold.cell[vi][ti];
      ratio_idx_cold.cell[vi][ti] =
          exh_idx_cold.cell[vi][ti] / seg_idx_cold.cell[vi][ti];
      mean_seq_warm += ratio_seq_warm.cell[vi][ti];
      mean_idx_warm += ratio_idx_warm.cell[vi][ti];
      mean_seq_cold += ratio_seq_cold.cell[vi][ti];
      mean_idx_cold += ratio_idx_cold.cell[vi][ti];
    }
  }
  mean_seq_warm /= 30;
  mean_idx_warm /= 30;
  mean_seq_cold /= 30;
  mean_idx_cold /= 30;

  PrintGrid(std::cout,
            "Figure 21: ratio of sequential scan time (Exh/SegDiff), warm",
            ratio_seq_warm, 1, "x");
  PrintGrid(std::cout,
            "Figure 22: ratio of index execution time (Exh/SegDiff), warm",
            ratio_idx_warm, 1, "x");
  PrintGrid(std::cout,
            "Figure 23: ratio of sequential scan time, cold cache",
            ratio_seq_cold, 1, "x");
  PrintGrid(std::cout,
            "Figure 24: ratio of index execution time, cold cache",
            ratio_idx_cold, 1, "x");

  std::cout << "\nmean speedups: seq warm " << Fmt(mean_seq_warm, 1)
            << "x (paper ~9x), index warm " << Fmt(mean_idx_warm, 1)
            << "x (paper ~10x), seq cold " << Fmt(mean_seq_cold, 1)
            << "x (paper ~9x), index cold " << Fmt(mean_idx_cold, 1)
            << "x (paper ~20x)\n";

  Grid ratio_col_row;
  std::vector<double> ratios;
  int slower = 0;
  for (int vi = 0; vi < 6; ++vi) {
    for (int ti = 0; ti < 5; ++ti) {
      const double ratio =
          auto_col_warm.cell[vi][ti] / auto_row_warm.cell[vi][ti];
      ratio_col_row.cell[vi][ti] = ratio;
      ratios.push_back(ratio);
      slower += ratio > 1.1 ? 1 : 0;
    }
  }
  std::sort(ratios.begin(), ratios.end());
  PrintGrid(std::cout, "SegDiff kAuto, warm: row store", auto_row_warm, 2,
            "ms");
  PrintGrid(std::cout, "SegDiff kAuto, warm: compacted copy", auto_col_warm,
            2, "ms");
  PrintGrid(std::cout,
            "SegDiff kAuto, warm: ratio compacted/row (> 1 = copy slower)",
            ratio_col_row, 2, "x");
  std::cout << "compacted slower (>1.1x) in " << slower << " of 30 cells; "
            << "median " << Fmt((ratios[14] + ratios[15]) / 2, 2)
            << "x, max " << Fmt(ratios.back(), 2) << "x\n";
  col->reset();
  RemoveBenchDb(col_path);
  RemoveBenchDb(seg_path);
  RemoveBenchDb(exh_path);
  return 0;
}

}  // namespace
}  // namespace segdiff

int main() { return segdiff::RunBench(); }
