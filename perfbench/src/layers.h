// Metric registries and the per-layer measurements shared by the
// workloads. Every layer is measured from outside: by timing calls into
// its public functions and by differencing its public stats structs
// (SearchStats, BufferPoolStats, WalInfo, StoreLruStats,
// ExtractorStats) and the counting Vfs across a phase.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "counting_vfs.h"
#include "segdiff/segdiff_index.h"
#include "storage/buffer_pool.h"
#include "storage/wal.h"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric an untraced run prints (BENCHMARK.json's
/// end_to_end list), and every per-layer metric a traced run prints
/// (its per_layer list). A metric whose layer a workload does not
/// exercise reads 0 there.
const std::vector<MetricSpec>& EndToEndSpecs();
const std::vector<MetricSpec>& PerLayerSpecs();

/// Sets `name` in `out`, taking the unit from the registry.
void SetLayer(MetricMap* out, const std::string& name, double value);
void SetEndToEnd(MetricMap* out, const std::string& name, double value);

/// Per-call timings of an acknowledged write path: one sample per
/// AppendObservation and one per FlushPending.
struct IngestTimings {
  Samples append_us;
  Samples flush_ms;
  uint64_t acknowledged = 0;  ///< observations covered by a flush
};

/// Streams `samples` into `index` one AppendObservation at a time and
/// acknowledges them with FlushPending at every day boundary, timing
/// each call (and recording spans when tracing).
Status StreamDays(segdiff::SegDiffIndex* index,
                  const std::vector<segdiff::Sample>& samples,
                  IngestTimings* timings, RunResult* result);

/// ingest_obs_per_s, ack_p50_ms, ack_p95_ms, append_p999_us.
void AddIngestMetrics(const IngestTimings& t, MetricMap* e2e);

/// Sets every metric of `reps` (one map per set-up repetition) in `out`
/// to its median over the repetitions.
void AddMedians(const std::vector<MetricMap>& reps, MetricMap* out);

/// search_p50_ms, search_p95_ms, searches_per_s.
void AddSearchMetrics(const Samples& search_ms, double loop_seconds,
                      MetricMap* e2e);

/// Sums of the SearchStats of a phase's searches.
struct SearchTotals {
  uint64_t searches = 0;
  uint64_t pairs = 0;
  uint64_t queries = 0;
  segdiff::ScanStats scan;
  uint64_t result_bytes_peak = 0;  ///< max over searches
  double admission_wait_ms = 0.0;
  void Add(const segdiff::SearchStats& s);
};

/// segdiff.pairs_per_search, segdiff.result_bytes_peak,
/// segdiff.admission_wait_ms and the query.* ratios.
void AddSearchLayerMetrics(const SearchTotals& t, MetricMap* layer);

/// Public counters of one store's buffer pool and WAL.
struct StoreCounters {
  segdiff::BufferPoolStats pool;
  segdiff::WalStats wal;
};
StoreCounters ReadStoreCounters(segdiff::SegDiffIndex* index);

/// buffer_pool.* over a phase that ingested `observations` and ran
/// `searches`.
void AddPoolMetrics(const StoreCounters& before, const StoreCounters& after,
                    double observations, double searches, MetricMap* layer);

/// wal.* over a phase that ingested `observations`.
void AddWalMetrics(const StoreCounters& before, const StoreCounters& after,
                   double observations, MetricMap* layer);

/// The counting Vfs' totals per file class.
struct VfsCounts {
  IoCounts by_class[kFileClasses];
};
VfsCounts ReadVfs(const CountingVfs& vfs);

/// vfs.<class>.<counter>_per_op over a phase of `ops` operations (the
/// workload's unit: a search, an observation, or a sweep).
void AddVfsMetrics(const VfsCounts& before, const VfsCounts& after,
                   double ops, MetricMap* layer);

/// The traced run's segment/feature replay: the series goes through a
/// public SlidingWindowSegmenter (max_error = eps/2, flushed at every
/// day boundary like the ingest path) and FeatureExtractor with a null
/// sink, each pass timed on its own.
struct ReplayResult {
  uint64_t observations = 0;
  uint64_t segments = 0;
  uint64_t rows = 0;
  double segment_s = 0.0;
  double extract_s = 0.0;
};
ReplayResult ReplaySegmentFeature(const Series& series);
/// segment.* and feature.*.
void AddReplayMetrics(const ReplayResult& r, MetricMap* layer);

/// storage.insert_share: of `ingest_ns` spent in AppendObservation and
/// FlushPending, the share left after taking out file IO (`self_ns` is
/// ingest time minus IO) and what the segmenter and extractor alone
/// need for the same series (`replay`) — the row and index inserts.
void AddInsertShare(double ingest_ns, double self_ns, const ReplayResult& replay,
                    MetricMap* layer);

/// query.full_scan_ns_per_row.{columnar,row}: SeqScan with
/// Predicate::True() and a null callback over every feature table of
/// `index`, by storage format; 0 for a format the store does not hold.
Status ProbeFullScans(segdiff::SegDiffIndex* index, MetricMap* layer);

/// trace.overhead.<metric>: traced minus untraced, for the timing
/// metrics both passes produced.
void AddTraceOverhead(const MetricMap& untraced, const MetricMap& traced,
                      MetricMap* layer);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
