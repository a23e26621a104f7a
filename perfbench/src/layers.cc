#include "layers.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "feature/extractor.h"
#include "query/executor.h"
#include "query/predicate.h"
#include "segment/sliding_window.h"
#include "storage/db.h"
#include "trace.h"

namespace perfbench {

namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

const MetricSpec* FindSpec(const std::vector<MetricSpec>& specs,
                           const std::string& name) {
  for (const MetricSpec& spec : specs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

void Set(const std::vector<MetricSpec>& specs, MetricMap* out,
         const std::string& name, double value) {
  const MetricSpec* spec = FindSpec(specs, name);
  if (spec == nullptr) {
    throw std::logic_error("metric not in the registry: " + name);
  }
  (*out)[name] = Metric{std::isfinite(value) ? value : 0.0, spec->unit};
}

std::vector<MetricSpec> MakePerLayerSpecs() {
  std::vector<MetricSpec> specs = {
      {"segdiff.search_ms", "ms"},
      {"segdiff.pairs_per_search", "count"},
      {"segdiff.result_bytes_peak", "B"},
      {"segdiff.append_us", "us"},
      {"segdiff.flush_ms", "ms"},
      {"segdiff.admission_wait_ms", "ms"},
      {"segment.us_per_obs", "us"},
      {"segment.obs_per_segment", "count"},
      {"feature.extract_us_per_segment", "us"},
      {"feature.rows_per_segment", "count"},
      {"storage.insert_share", "ratio"},
      {"query.range_queries_per_search", "count"},
      {"query.rows_scanned_per_search", "count"},
      {"query.match_ratio", "ratio"},
      {"query.rows_per_pair", "count"},
      {"query.pages_pruned_ratio", "ratio"},
      {"query.index_entries_per_search", "count"},
      {"query.heap_fetches_per_search", "count"},
      {"query.full_scan_ns_per_row.columnar", "ns"},
      {"query.full_scan_ns_per_row.row", "ns"},
      {"buffer_pool.hit_ratio", "ratio"},
      {"buffer_pool.evictions_per_obs", "count"},
      {"buffer_pool.dirty_writebacks_per_obs", "count"},
      {"buffer_pool.cow_copies_per_search", "count"},
      {"wal.bytes_per_obs", "B"},
      {"wal.records_per_obs", "count"},
      {"wal.fsyncs_per_obs", "count"},
      {"wal.group_commit_ratio", "ratio"},
  };
  // The per-class Vfs counters carry their names in static storage.
  static const char* const kClassNames[kFileClasses] = {"data", "wal", "other"};
  static const char* const kCounters[][2] = {
      {"read_bytes_per_op", "B"}, {"write_bytes_per_op", "B"},
      {"fsyncs_per_op", "count"}, {"read_ms_per_op", "ms"},
      {"write_ms_per_op", "ms"},  {"sync_ms_per_op", "ms"},
  };
  static std::vector<std::string> vfs_names;
  if (vfs_names.empty()) {
    for (const char* cls : kClassNames) {
      for (const auto& counter : kCounters) {
        vfs_names.push_back(std::string("vfs.") + cls + "." + counter[0]);
      }
    }
  }
  size_t i = 0;
  for (int c = 0; c < kFileClasses; ++c) {
    for (const auto& counter : kCounters) {
      specs.push_back({vfs_names[i++].c_str(), counter[1]});
    }
  }
  const std::vector<MetricSpec> rest = {
      {"vfs.write_bytes_per_sweep", "B"},
      {"vfs.fsyncs_per_sweep", "count"},
      {"store_lru.opens_per_sweep", "count"},
      {"store_lru.evictions_per_sweep", "count"},
      {"store_lru.hit_ratio", "ratio"},
      {"store_lru.churn_share", "ratio"},
      {"store.open_ms", "ms"},
      {"store.close_ms", "ms"},
      {"transect.resident_sweep_ms", "ms"},
      {"transect.fanout_speedup", "x"},
      {"setup.generate_s", "s"},
      {"setup.build_s", "s"},
      {"setup.compact_s", "s"},
      {"trace.overhead.search_p50_ms", "ms"},
      {"trace.overhead.search_p95_ms", "ms"},
      {"trace.overhead.searches_per_s", "1/s"},
      {"trace.overhead.ingest_obs_per_s", "obs/s"},
      {"trace.overhead.ack_p50_ms", "ms"},
      {"trace.overhead.append_p999_us", "us"},
  };
  specs.insert(specs.end(), rest.begin(), rest.end());
  return specs;
}

}  // namespace

const std::vector<MetricSpec>& EndToEndSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"search_p50_ms", "ms"},
      {"search_p95_ms", "ms"},
      {"searches_per_s", "1/s"},
      {"ingest_obs_per_s", "obs/s"},
      {"ack_p50_ms", "ms"},
      {"ack_p95_ms", "ms"},
      {"append_p999_us", "us"},
      {"storage_bytes_per_obs", "B"},
      {"peak_rss_mib", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerSpecs() {
  static const std::vector<MetricSpec> specs = MakePerLayerSpecs();
  return specs;
}

void SetLayer(MetricMap* out, const std::string& name, double value) {
  Set(PerLayerSpecs(), out, name, value);
}

void SetEndToEnd(MetricMap* out, const std::string& name, double value) {
  Set(EndToEndSpecs(), out, name, value);
}

Status StreamDays(segdiff::SegDiffIndex* index,
                  const std::vector<segdiff::Sample>& samples,
                  IngestTimings* timings, RunResult* result) {
  size_t i = 0;
  while (i < samples.size()) {
    const double day_end =
        (std::floor(samples[i].t / kDaySeconds) + 1.0) * kDaySeconds;
    size_t day_count = 0;
    for (; i < samples.size() && samples[i].t < day_end; ++i, ++day_count) {
      Status st;
      int64_t t0 = 0;
      {
        ScopedSpan span("segdiff.append");
        t0 = NowNs();
        st = index->AppendObservation(samples[i].t, samples[i].v);
      }
      timings->append_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
      if (!result->Check(st, "AppendObservation")) return st;
    }
    Status st;
    int64_t t0 = 0;
    {
      ScopedSpan span("segdiff.flush");
      t0 = NowNs();
      st = index->FlushPending();
    }
    timings->flush_ms.Add(static_cast<double>(NowNs() - t0) / 1e6);
    if (!result->Check(st, "FlushPending")) return st;
    timings->acknowledged += day_count;
  }
  return Status::OK();
}

void AddIngestMetrics(const IngestTimings& t, MetricMap* e2e) {
  const double busy_s = t.append_us.Sum() / 1e6 + t.flush_ms.Sum() / 1e3;
  SetEndToEnd(e2e, "ingest_obs_per_s",
              Ratio(static_cast<double>(t.acknowledged), busy_s));
  SetEndToEnd(e2e, "ack_p50_ms", t.flush_ms.Percentile(50));
  SetEndToEnd(e2e, "ack_p95_ms", t.flush_ms.Percentile(95));
  SetEndToEnd(e2e, "append_p999_us", t.append_us.Percentile(99.9));
}

void AddMedians(const std::vector<MetricMap>& reps, MetricMap* out) {
  if (reps.empty()) return;
  for (const auto& [name, metric] : reps.front()) {
    Samples values;
    for (const MetricMap& rep : reps) values.Add(rep.at(name).value);
    (*out)[name] = Metric{values.Median(), metric.unit};
  }
}

void AddSearchMetrics(const Samples& search_ms, double loop_seconds,
                      MetricMap* e2e) {
  SetEndToEnd(e2e, "search_p50_ms", search_ms.Percentile(50));
  SetEndToEnd(e2e, "search_p95_ms", search_ms.Percentile(95));
  SetEndToEnd(e2e, "searches_per_s",
              Ratio(static_cast<double>(search_ms.size()), loop_seconds));
}

void SearchTotals::Add(const segdiff::SearchStats& s) {
  ++searches;
  pairs += s.pairs_returned;
  queries += s.queries_issued;
  scan.Add(s.scan);
  result_bytes_peak = std::max(result_bytes_peak, s.result_bytes_peak);
  admission_wait_ms += s.admission_wait_ms;
}

void AddSearchLayerMetrics(const SearchTotals& t, MetricMap* layer) {
  const double n = static_cast<double>(t.searches);
  const segdiff::ScanStats& s = t.scan;
  SetLayer(layer, "segdiff.pairs_per_search", Ratio(t.pairs, n));
  SetLayer(layer, "segdiff.result_bytes_peak",
           static_cast<double>(t.result_bytes_peak));
  SetLayer(layer, "segdiff.admission_wait_ms", Ratio(t.admission_wait_ms, n));
  SetLayer(layer, "query.range_queries_per_search", Ratio(t.queries, n));
  SetLayer(layer, "query.rows_scanned_per_search", Ratio(s.rows_scanned, n));
  SetLayer(layer, "query.match_ratio",
           Ratio(s.rows_matched, s.rows_scanned));
  SetLayer(layer, "query.rows_per_pair", Ratio(s.rows_matched, t.pairs));
  SetLayer(layer, "query.pages_pruned_ratio",
           Ratio(s.pages_pruned, s.pages_scanned + s.pages_pruned));
  SetLayer(layer, "query.index_entries_per_search",
           Ratio(s.index_entries_scanned, n));
  SetLayer(layer, "query.heap_fetches_per_search", Ratio(s.heap_fetches, n));
}

StoreCounters ReadStoreCounters(segdiff::SegDiffIndex* index) {
  StoreCounters c;
  c.pool = index->db()->buffer_pool()->stats();
  c.wal = index->db()->GetWalInfo().stats;
  return c;
}

void AddPoolMetrics(const StoreCounters& b, const StoreCounters& a,
                    double observations, double searches, MetricMap* layer) {
  const double hits = static_cast<double>(a.pool.hits - b.pool.hits);
  const double misses = static_cast<double>(a.pool.misses - b.pool.misses);
  SetLayer(layer, "buffer_pool.hit_ratio", Ratio(hits, hits + misses));
  SetLayer(layer, "buffer_pool.evictions_per_obs",
           Ratio(a.pool.evictions - b.pool.evictions, observations));
  SetLayer(layer, "buffer_pool.dirty_writebacks_per_obs",
           Ratio(a.pool.dirty_writebacks - b.pool.dirty_writebacks,
                 observations));
  SetLayer(layer, "buffer_pool.cow_copies_per_search",
           Ratio(a.pool.cow_copies - b.pool.cow_copies, searches));
}

void AddWalMetrics(const StoreCounters& b, const StoreCounters& a,
                   double observations, MetricMap* layer) {
  SetLayer(layer, "wal.bytes_per_obs",
           Ratio(a.wal.bytes_written - b.wal.bytes_written, observations));
  SetLayer(layer, "wal.records_per_obs",
           Ratio(a.wal.appends - b.wal.appends, observations));
  SetLayer(layer, "wal.fsyncs_per_obs",
           Ratio(a.wal.fsyncs - b.wal.fsyncs, observations));
  SetLayer(layer, "wal.group_commit_ratio",
           Ratio(a.wal.group_commits - b.wal.group_commits,
                 a.wal.fsyncs - b.wal.fsyncs));
}

VfsCounts ReadVfs(const CountingVfs& vfs) {
  VfsCounts c;
  for (int i = 0; i < kFileClasses; ++i) {
    c.by_class[i] = vfs.Counts(static_cast<FileClass>(i));
  }
  return c;
}

void AddVfsMetrics(const VfsCounts& before, const VfsCounts& after,
                   double ops, MetricMap* layer) {
  for (int i = 0; i < kFileClasses; ++i) {
    const IoCounts d = after.by_class[i].Minus(before.by_class[i]);
    const std::string prefix =
        std::string("vfs.") + FileClassName(static_cast<FileClass>(i)) + ".";
    SetLayer(layer, prefix + "read_bytes_per_op", Ratio(d.read_bytes, ops));
    SetLayer(layer, prefix + "write_bytes_per_op", Ratio(d.write_bytes, ops));
    SetLayer(layer, prefix + "fsyncs_per_op", Ratio(d.fsyncs, ops));
    SetLayer(layer, prefix + "read_ms_per_op", Ratio(d.read_ns / 1e6, ops));
    SetLayer(layer, prefix + "write_ms_per_op", Ratio(d.write_ns / 1e6, ops));
    SetLayer(layer, prefix + "sync_ms_per_op", Ratio(d.sync_ns / 1e6, ops));
  }
}

ReplayResult ReplaySegmentFeature(const Series& series) {
  ReplayResult r;
  r.observations = series.size();
  std::vector<segdiff::DataSegment> segments;
  {
    segdiff::SegmentationOptions options;
    options.max_error = kEps / 2.0;
    segdiff::SlidingWindowSegmenter segmenter(
        options, [&segments](const segdiff::DataSegment& s) {
          segments.push_back(s);
          return Status::OK();
        });
    ScopedSpan span("segment.replay");
    const int64_t t0 = NowNs();
    double day_end = -1.0;
    for (const segdiff::Sample& s : series) {
      if (s.t >= day_end) {
        if (day_end >= 0.0) (void)segmenter.Flush();
        day_end = (std::floor(s.t / kDaySeconds) + 1.0) * kDaySeconds;
      }
      (void)segmenter.Add(s);
    }
    (void)segmenter.Flush();
    r.segment_s = static_cast<double>(NowNs() - t0) / 1e9;
  }
  r.segments = segments.size();
  {
    segdiff::ExtractorOptions options;
    options.eps = kEps;
    options.window_s = kWindowS;
    segdiff::FeatureExtractor extractor(
        options, [](const segdiff::PairFeatures&) { return Status::OK(); });
    ScopedSpan span("feature.replay");
    const int64_t t0 = NowNs();
    for (const segdiff::DataSegment& s : segments) {
      (void)extractor.AddSegment(s);
    }
    r.extract_s = static_cast<double>(NowNs() - t0) / 1e9;
    r.rows = extractor.stats().rows_emitted;
  }
  return r;
}

void AddReplayMetrics(const ReplayResult& r, MetricMap* layer) {
  const double obs = static_cast<double>(r.observations);
  const double segs = static_cast<double>(r.segments);
  SetLayer(layer, "segment.us_per_obs", Ratio(r.segment_s * 1e6, obs));
  SetLayer(layer, "segment.obs_per_segment", Ratio(obs, segs));
  SetLayer(layer, "feature.extract_us_per_segment",
           Ratio(r.extract_s * 1e6, segs));
  SetLayer(layer, "feature.rows_per_segment",
           Ratio(static_cast<double>(r.rows), segs));
}

void AddInsertShare(double ingest_ns, double self_ns, const ReplayResult& replay,
                    MetricMap* layer) {
  const double pipeline_ns = (replay.segment_s + replay.extract_s) * 1e9;
  SetLayer(layer, "storage.insert_share",
           Ratio(self_ns - pipeline_ns, ingest_ns));
}

Status ProbeFullScans(segdiff::SegDiffIndex* index, MetricMap* layer) {
  // Enough passes that each format's total is milliseconds, not noise.
  constexpr int kPasses = 5;
  double ns[2] = {0.0, 0.0};    // [columnar, row]
  double rows[2] = {0.0, 0.0};
  for (const auto& table : index->db()->tables()) {
    const std::string& name = table->name();
    if (name.rfind("drop", 0) != 0 && name.rfind("jump", 0) != 0) continue;
    const segdiff::Table::FormatBreakdown f = table->GetFormatBreakdown();
    if (f.columnar_rows + f.row_rows == 0) continue;
    // Mixed tables are attributed to their majority format.
    const int format = f.columnar_rows >= f.row_rows ? 0 : 1;
    for (int pass = 0; pass < kPasses; ++pass) {
      segdiff::ScanStats stats;
      ScopedSpan span("query.seq_scan");
      const int64_t t0 = NowNs();
      SEGDIFF_RETURN_IF_ERROR(segdiff::SeqScan(
          *table, segdiff::Predicate::True(), nullptr, &stats));
      ns[format] += static_cast<double>(NowNs() - t0);
      rows[format] += static_cast<double>(stats.rows_scanned);
    }
  }
  SetLayer(layer, "query.full_scan_ns_per_row.columnar", Ratio(ns[0], rows[0]));
  SetLayer(layer, "query.full_scan_ns_per_row.row", Ratio(ns[1], rows[1]));
  return Status::OK();
}

void AddTraceOverhead(const MetricMap& untraced, const MetricMap& traced,
                      MetricMap* layer) {
  for (const char* name : {"search_p50_ms", "search_p95_ms", "searches_per_s",
                           "ingest_obs_per_s", "ack_p50_ms",
                           "append_p999_us"}) {
    auto u = untraced.find(name);
    auto t = traced.find(name);
    if (u == untraced.end() || t == traced.end()) continue;
    SetLayer(layer, std::string("trace.overhead.") + name,
             t->second.value - u->second.value);
  }
}

}  // namespace perfbench
