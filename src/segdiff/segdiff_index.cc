#include "segdiff/segdiff_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/thread_pool.h"
#include "query/planner.h"
#include "query/predicate.h"

namespace segdiff {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Catalog meta blob holding the resumable ingest state.
constexpr char kIngestStateKey[] = "segdiff.ingest";
constexpr uint32_t kIngestStateMagic = 0x5347494E;  // "SGIN"

std::string FeatureTableName(SearchKind kind, int corner_count) {
  std::string name(SearchKindName(kind));
  name.push_back(static_cast<char>('0' + corner_count));
  return name;
}

/// Column index of corner j's dt (j is 1-based).
size_t DtCol(int j) { return 2 * static_cast<size_t>(j - 1); }
/// Column index of corner j's dv.
size_t DvCol(int j) { return 2 * static_cast<size_t>(j - 1) + 1; }

/// Pair key columns of a k-corner feature table.
size_t TdCol(int k) { return 2 * static_cast<size_t>(k); }
size_t TcCol(int k) { return 2 * static_cast<size_t>(k) + 1; }
size_t TbCol(int k) { return 2 * static_cast<size_t>(k) + 2; }

/// One point or line range query against a feature table (Section 4.4).
struct RangeQuery {
  bool is_line = false;
  int corner = 1;  ///< point: corner j; line: edge (j, j+1)
};

/// Index of the segment that starts at `t` in `starts` (strictly
/// increasing), or starts.size() when none does. Tries `hint` and the
/// segment after it before a binary search.
size_t FindSegment(const std::vector<double>& starts, double t,
                   size_t hint) {
  const size_t n = starts.size();
  if (hint < n && starts[hint] == t) return hint;
  if (hint + 1 < n && starts[hint + 1] == t) return hint + 1;
  const auto it = std::lower_bound(starts.begin(), starts.end(), t);
  return it != starts.end() && *it == t
             ? static_cast<size_t>(it - starts.begin())
             : n;
}

}  // namespace

SegDiffIndex::SegDiffIndex(SegDiffOptions options)
    : options_(std::move(options)),
      store_(options_.admission,
             {kIngestStateKey, kIngestStateMagic,
              [this](double t, double v) {
                return segmenter_->Add(Sample{t, v});
              },
              [this] { return segmenter_->Flush(); },
              [this](uint64_t observations, ByteWriter* w) {
                SaveState(observations, w);
              },
              [this](ByteReader* r, uint64_t* observations) {
                return RestoreState(r, observations);
              }}) {}

Result<std::unique_ptr<SegDiffIndex>> SegDiffIndex::Open(
    const std::string& path, const SegDiffOptions& options) {
  if (options.eps < 0.0) {
    return Status::InvalidArgument("eps must be >= 0");
  }
  if (options.window_s <= 0.0) {
    return Status::InvalidArgument("window_s must be positive");
  }
  std::unique_ptr<SegDiffIndex> index(new SegDiffIndex(options));
  SEGDIFF_RETURN_IF_ERROR(index->store_.Open(
      path, options, options.create_if_missing,
      [&index] { return index->LayOut(); }));
  return index;
}

Status SegDiffIndex::LayOut() {
  SEGDIFF_RETURN_IF_ERROR(InitTables());
  // Streaming pipeline: segmenter -> segment directory + extractor ->
  // feature tables. Built after RestoreState so a reopened store's
  // adopted build parameters (eps, window, collected kinds) apply.
  ExtractorOptions extractor_options;
  extractor_options.eps = options_.eps;
  extractor_options.window_s = options_.window_s;
  extractor_options.collect_drops = options_.collect_drops;
  extractor_options.collect_jumps = options_.collect_jumps;
  extractor_ = std::make_unique<FeatureExtractor>(
      extractor_options,
      [this](const PairFeatures& row) { return WriteFeatureRow(row); });
  SegmentationOptions seg_options;
  seg_options.max_error = options_.eps / 2.0;
  segmenter_ = std::make_unique<SlidingWindowSegmenter>(
      seg_options,
      [this](const DataSegment& segment) { return OnSegment(segment); });
  if (restored_extractor_ != nullptr) {
    SEGDIFF_RETURN_IF_ERROR(extractor_->RestoreState(*restored_extractor_));
    restored_extractor_.reset();
  }
  if (restored_segmenter_ != nullptr) {
    SEGDIFF_RETURN_IF_ERROR(segmenter_->RestoreState(*restored_segmenter_));
    restored_segmenter_.reset();
  }
  return Status::OK();
}

Status SegDiffIndex::InitTables() {
  // CreateTable checkpoints the catalog (so WAL-logged rows always find
  // their table on replay), which means a crash while a fresh store was
  // being laid out can leave a durable PREFIX of the tables. Creation is
  // therefore written to be idempotent: every table and index is
  // ensured individually, so reopening a torn store finishes the job.
  Database* db = store_.db();
  const bool fresh = db->tables().empty();
  auto ensure_table = [db](const std::string& name,
                           TableSchema schema) -> Result<Table*> {
    Result<Table*> existing = db->GetTable(name);
    if (existing.ok() || !existing.status().IsNotFound()) {
      return existing;
    }
    return db->CreateTable(name, std::move(schema));
  };
  SEGDIFF_ASSIGN_OR_RETURN(TableSchema seg_schema,
                           DoubleSchema({"t_s", "v_s", "t_e", "v_e"}));
  SEGDIFF_ASSIGN_OR_RETURN(segments_table_,
                           ensure_table("segments", std::move(seg_schema)));
  // Whether indexes exist is a property of the store, not of this Open
  // call: adopt it from the first feature table so resumed appends keep
  // the attached indexes fed. A store still mid-creation (some tables
  // missing) keeps the requested option instead.
  {
    Result<Table*> first = db->GetTable(FeatureTableName(SearchKind::kDrop, 1));
    if (first.ok()) {
      options_.build_indexes = !(*first)->indexes().empty();
    } else if (!first.status().IsNotFound()) {
      return first.status();
    }
  }
  for (SearchKind kind : {SearchKind::kDrop, SearchKind::kJump}) {
    for (int k = 1; k <= 3; ++k) {
      std::vector<std::string> columns;
      for (int j = 1; j <= k; ++j) {
        columns.push_back("dt" + std::to_string(j));
        columns.push_back("dv" + std::to_string(j));
      }
      columns.push_back("td");
      columns.push_back("tc");
      columns.push_back("tb");
      SEGDIFF_ASSIGN_OR_RETURN(TableSchema schema, DoubleSchema(columns));
      SEGDIFF_ASSIGN_OR_RETURN(
          Table * table,
          ensure_table(FeatureTableName(kind, k), std::move(schema)));
      feature_tables_[static_cast<int>(kind)][k - 1] = table;
      if (options_.build_indexes) {
        auto ensure_index = [&table](const std::string& name,
                                     std::vector<std::string> cols) -> Status {
          if (table->GetIndex(name).ok()) {
            return Status::OK();
          }
          return table->CreateIndex(name, std::move(cols)).status();
        };
        for (int j = 1; j <= k; ++j) {
          SEGDIFF_RETURN_IF_ERROR(ensure_index(
              "pt" + std::to_string(j),
              {"dt" + std::to_string(j), "dv" + std::to_string(j)}));
        }
        for (int j = 1; j < k; ++j) {
          SEGDIFF_RETURN_IF_ERROR(ensure_index(
              "ln" + std::to_string(j),
              {"dt" + std::to_string(j), "dv" + std::to_string(j),
               "dt" + std::to_string(j + 1), "dv" + std::to_string(j + 1)}));
        }
      }
    }
  }
  segment_dir_fresh_ = fresh;
  return Status::OK();
}

Status SegDiffIndex::WriteFeatureRow(const PairFeatures& row) {
  const int k = row.corners.count;
  if (k < 1 || k > 3) {
    return Status::Internal("feature row with bad corner count");
  }
  Table* table = feature_tables_[static_cast<int>(row.kind)][k - 1];
  row_buf_.clear();
  for (int i = 0; i < k; ++i) {
    row_buf_.push_back(row.corners.pts[i].dt);
    row_buf_.push_back(row.corners.pts[i].dv);
  }
  row_buf_.push_back(row.id.t_d);
  row_buf_.push_back(row.id.t_c);
  row_buf_.push_back(row.id.t_b);
  // Table::InsertDoubles also folds the row into the table's zone map,
  // so the per-page stats the planner and pruned scans use stay current
  // with every flushed feature.
  return table->InsertDoubles(row_buf_).status();
}

Status SegDiffIndex::OnSegment(const DataSegment& segment) {
  SEGDIFF_RETURN_IF_ERROR(segments_table_
                              ->InsertDoubles({segment.start.t, segment.start.v,
                                               segment.end.t, segment.end.v})
                              .status());
  {
    // Searches resolve t_a from the directory while ingest appends to
    // it; a stale directory is reloaded whole by the next search.
    std::lock_guard<std::mutex> lock(lazy_mu_);
    if (segment_dir_fresh_) {
      seg_starts_.push_back(segment.start.t);
      seg_ends_.push_back(segment.end.t);
    }
  }
  return extractor_->AddSegment(segment);
}

Status SegDiffIndex::AppendObservation(double t, double v) {
  return store_.Append(t, v);
}

Status SegDiffIndex::FlushPending() { return store_.Flush(); }

Status SegDiffIndex::IngestSeries(const Series& series) {
  if (series.size() < 2) {
    return Status::InvalidArgument("series must have at least 2 samples");
  }
  return FeatureSink::IngestSeries(series);
}

void SegDiffIndex::SaveState(uint64_t observations, ByteWriter* w) const {
  const SegmenterState seg = segmenter_->SaveState();
  const ExtractorState ext = extractor_->SaveState();
  w->F64(options_.eps);
  w->F64(options_.window_s);
  w->U8(options_.collect_drops ? 1 : 0);
  w->U8(options_.collect_jumps ? 1 : 0);
  w->U64(observations);
  w->U8(seg.has_anchor ? 1 : 0);
  w->U8(seg.has_endpoint ? 1 : 0);
  w->U8(seg.finished ? 1 : 0);
  w->F64(seg.anchor.t);
  w->F64(seg.anchor.v);
  w->F64(seg.endpoint.t);
  w->F64(seg.endpoint.v);
  w->F64(seg.slope_lo);
  w->F64(seg.slope_hi);
  w->U64(seg.observations);
  w->U64(seg.segments_emitted);
  w->F64(ext.last_end_t);
  w->U8(ext.has_last ? 1 : 0);
  w->U64(ext.stats.segments_in);
  w->U64(ext.stats.cross_pairs);
  w->U64(ext.stats.self_pairs);
  w->U64(ext.stats.rows_emitted);
  w->U64(ext.stats.corners_emitted);
  for (int kind = 0; kind < 2; ++kind) {
    for (int k = 0; k < 4; ++k) {
      w->U64(ext.stats.frontier_hist[kind][k]);
    }
  }
  for (int c = 0; c < 7; ++c) {
    w->U64(ext.stats.case_hist[c]);
  }
  w->U32(static_cast<uint32_t>(ext.window.size()));
  for (const DataSegment& segment : ext.window) {
    w->F64(segment.start.t);
    w->F64(segment.start.v);
    w->F64(segment.end.t);
    w->F64(segment.end.v);
  }
}

Status SegDiffIndex::RestoreState(ByteReader* r, uint64_t* observations) {
  // Build parameters are properties of the store, not of this Open call.
  SEGDIFF_ASSIGN_OR_RETURN(options_.eps, r->F64());
  SEGDIFF_ASSIGN_OR_RETURN(options_.window_s, r->F64());
  SEGDIFF_ASSIGN_OR_RETURN(uint8_t collect_drops, r->U8());
  SEGDIFF_ASSIGN_OR_RETURN(uint8_t collect_jumps, r->U8());
  options_.collect_drops = collect_drops != 0;
  options_.collect_jumps = collect_jumps != 0;
  SEGDIFF_ASSIGN_OR_RETURN(*observations, r->U64());

  auto segmenter = std::make_unique<SegmenterState>();
  SEGDIFF_ASSIGN_OR_RETURN(uint8_t has_anchor, r->U8());
  SEGDIFF_ASSIGN_OR_RETURN(uint8_t has_endpoint, r->U8());
  SEGDIFF_ASSIGN_OR_RETURN(uint8_t finished, r->U8());
  segmenter->has_anchor = has_anchor != 0;
  segmenter->has_endpoint = has_endpoint != 0;
  segmenter->finished = finished != 0;
  SEGDIFF_ASSIGN_OR_RETURN(segmenter->anchor.t, r->F64());
  SEGDIFF_ASSIGN_OR_RETURN(segmenter->anchor.v, r->F64());
  SEGDIFF_ASSIGN_OR_RETURN(segmenter->endpoint.t, r->F64());
  SEGDIFF_ASSIGN_OR_RETURN(segmenter->endpoint.v, r->F64());
  SEGDIFF_ASSIGN_OR_RETURN(segmenter->slope_lo, r->F64());
  SEGDIFF_ASSIGN_OR_RETURN(segmenter->slope_hi, r->F64());
  SEGDIFF_ASSIGN_OR_RETURN(segmenter->observations, r->U64());
  SEGDIFF_ASSIGN_OR_RETURN(segmenter->segments_emitted, r->U64());

  auto extractor = std::make_unique<ExtractorState>();
  SEGDIFF_ASSIGN_OR_RETURN(extractor->last_end_t, r->F64());
  SEGDIFF_ASSIGN_OR_RETURN(uint8_t has_last, r->U8());
  extractor->has_last = has_last != 0;
  SEGDIFF_ASSIGN_OR_RETURN(extractor->stats.segments_in, r->U64());
  SEGDIFF_ASSIGN_OR_RETURN(extractor->stats.cross_pairs, r->U64());
  SEGDIFF_ASSIGN_OR_RETURN(extractor->stats.self_pairs, r->U64());
  SEGDIFF_ASSIGN_OR_RETURN(extractor->stats.rows_emitted, r->U64());
  SEGDIFF_ASSIGN_OR_RETURN(extractor->stats.corners_emitted, r->U64());
  for (int kind = 0; kind < 2; ++kind) {
    for (int k = 0; k < 4; ++k) {
      SEGDIFF_ASSIGN_OR_RETURN(extractor->stats.frontier_hist[kind][k],
                               r->U64());
    }
  }
  for (int c = 0; c < 7; ++c) {
    SEGDIFF_ASSIGN_OR_RETURN(extractor->stats.case_hist[c], r->U64());
  }
  // Four doubles per window segment.
  SEGDIFF_ASSIGN_OR_RETURN(const uint32_t window_size, r->Count(32));
  extractor->window.reserve(window_size);
  for (uint32_t i = 0; i < window_size; ++i) {
    DataSegment segment;
    SEGDIFF_ASSIGN_OR_RETURN(segment.start.t, r->F64());
    SEGDIFF_ASSIGN_OR_RETURN(segment.start.v, r->F64());
    SEGDIFF_ASSIGN_OR_RETURN(segment.end.t, r->F64());
    SEGDIFF_ASSIGN_OR_RETURN(segment.end.v, r->F64());
    extractor->window.push_back(segment);
  }
  restored_segmenter_ = std::move(segmenter);
  restored_extractor_ = std::move(extractor);
  return Status::OK();
}

Status SegDiffIndex::EnsureSegmentDirectory() {
  {
    // Fast path: once fresh, OnSegment keeps the directory current
    // incrementally (under lazy_mu_), so no rebuild is ever needed.
    std::lock_guard<std::mutex> lock(lazy_mu_);
    if (segment_dir_fresh_) {
      return Status::OK();
    }
  }
  // Rebuild (reopened or cache-dropped store): block ingest so the live
  // scan plus the rebuilt map form one atomic state — a segment emitted
  // mid-rebuild could otherwise vanish from the directory. Lock order:
  // the ingest lock before lazy_mu_, as everywhere.
  std::lock_guard<std::mutex> ingest_lock(store_.ingest_mu());
  std::lock_guard<std::mutex> lock(lazy_mu_);
  if (segment_dir_fresh_) {
    return Status::OK();  // another search rebuilt it while we waited
  }
  seg_starts_.clear();
  seg_ends_.clear();
  SEGDIFF_RETURN_IF_ERROR(QuarantineScanError(
      SeqScan(*segments_table_, Predicate::True(),
              [this](const char* record, RecordId) -> Status {
                seg_starts_.push_back(DecodeDoubleColumn(record, 0));
                seg_ends_.push_back(DecodeDoubleColumn(record, 2));
                return Status::OK();
              }),
      "the segment directory"));
  // The scan visits segments in insertion order, which ingest keeps in
  // time order; the t_a lookups rely on it.
  for (size_t i = 1; i < seg_starts_.size(); ++i) {
    if (!(seg_starts_[i - 1] < seg_starts_[i])) {
      return Status::Corruption(
          "segment directory is out of time order: segment " +
          std::to_string(i) + " does not start after segment " +
          std::to_string(i - 1));
    }
  }
  segment_dir_fresh_ = true;
  return Status::OK();
}

Result<std::vector<PairId>> SegDiffIndex::SearchDrops(
    double T, double V, const SearchOptions& options, SearchStats* stats) {
  return Search(SearchKind::kDrop, T, V, options, stats);
}

Result<std::vector<PairId>> SegDiffIndex::SearchJumps(
    double T, double V, const SearchOptions& options, SearchStats* stats) {
  return Search(SearchKind::kJump, T, V, options, stats);
}

Result<std::vector<PairId>> SegDiffIndex::Search(SearchKind kind, double T,
                                                 double V,
                                                 const SearchOptions& options,
                                                 SearchStats* stats) {
  std::vector<PairId> results;
  SEGDIFF_RETURN_IF_ERROR(store_.Search(
      kind, T, V, options_.window_s, options, stats,
      [&](const SearchScope& scope) {
        return SearchImpl(kind, T, V, options, scope, &results);
      },
      [&]() -> Result<uint64_t> {
        SEGDIFF_RETURN_IF_ERROR(FinishPairs(&results));
        return results.size();
      }));
  return results;
}

Status SegDiffIndex::FinishPairs(std::vector<PairId>* results) {
  // Materialize t_a from the segment directory, in collection order.
  // Every pair came from the snapshot, so its segment is in the
  // directory (which only grows under concurrent ingest — lookups
  // happen under lazy_mu_ because OnSegment appends while we read). A
  // pass emits a table's rows in t_b order, so in a dense result the
  // next pair's segment is mostly the previous one or the one after
  // it; sparse results and index-scan order fall back to a binary
  // search.
  SEGDIFF_RETURN_IF_ERROR(EnsureSegmentDirectory());
  {
    std::lock_guard<std::mutex> lock(lazy_mu_);
    size_t hint = 0;
    for (PairId& id : *results) {
      // Ingest rejects non-finite samples, so only a damaged or crafted
      // store gets here; such a key would break the ordering below.
      if (!std::isfinite(id.t_d) || !std::isfinite(id.t_c) ||
          !std::isfinite(id.t_b)) {
        return Status::Corruption("feature row with a non-finite pair key");
      }
      hint = FindSegment(seg_starts_, id.t_b, hint);
      if (hint == seg_starts_.size()) {
        return Status::Corruption("feature row references unknown segment");
      }
      id.t_a = seg_ends_[hint];
    }
  }
  // Union of all queries: sort and dedupe on (t_d, t_c, t_b).
  SortUniquePairs(results);
  return Status::OK();
}

Status SegDiffIndex::SearchImpl(SearchKind kind, double T, double V,
                                const SearchOptions& options,
                                const SearchScope& scope,
                                std::vector<PairId>* results) {
  const bool drop = kind == SearchKind::kDrop;
  Table* const* tables = feature_tables_[static_cast<int>(kind)];

  // Everything that lazily mutates index state happens before any task
  // can run on a worker thread; the tasks themselves are read-only.
  // Zone maps drive both page pruning inside the sequential scans and
  // the kAuto cost model.
  SEGDIFF_RETURN_IF_ERROR(
      store_.EnsureZoneMaps({tables[0], tables[1], tables[2]}));

  // Builds the paper's predicate for one query, for sequential scans.
  auto make_predicate = [drop, T, V](const RangeQuery& query) {
    Predicate predicate;
    if (!query.is_line) {
      predicate.And(DtCol(query.corner), CmpOp::kLe, T);
      predicate.And(DvCol(query.corner), drop ? CmpOp::kLe : CmpOp::kGe,
                    V);
      return predicate;
    }
    const size_t dt1 = DtCol(query.corner);
    const size_t dv1 = DvCol(query.corner);
    const size_t dt2 = DtCol(query.corner + 1);
    const size_t dv2 = DvCol(query.corner + 1);
    predicate.And(dt1, CmpOp::kLe, T);
    predicate.And(dv1, drop ? CmpOp::kGt : CmpOp::kLt, V);
    predicate.And(dt2, CmpOp::kGt, T);
    predicate.And(dv2, drop ? CmpOp::kLt : CmpOp::kGt, V);
    predicate.AndResidual([=](const char* record) {
      const double a_dt = DecodeDoubleColumn(record, dt1);
      const double a_dv = DecodeDoubleColumn(record, dv1);
      const double b_dt = DecodeDoubleColumn(record, dt2);
      const double b_dv = DecodeDoubleColumn(record, dv2);
      if (b_dt <= a_dt) {
        return false;
      }
      const double at_T = a_dv + (b_dv - a_dv) / (b_dt - a_dt) * (T - a_dt);
      return drop ? at_T <= V : at_T >= V;
    });
    return predicate;
  };

  // One executable unit: a pass running several of a table's queries as
  // one any-of scan, or a single point/line query with its access path
  // already resolved.
  struct QueryTask {
    int k = 1;
    Table* table = nullptr;
    std::vector<RangeQuery> queries;  ///< exactly one unless `pass`
    bool pass = false;
    QueryMode mode = QueryMode::kSeqScan;  ///< a pass always scans
  };
  const bool fused = options.mode == QueryMode::kSeqScan && options.fused_scan;
  std::vector<QueryTask> tasks;
  for (int k = 1; k <= 3; ++k) {
    Table* table = tables[k - 1];
    // Row counts, page counts, and zone maps all come from the frozen
    // view: concurrent ingest must affect neither the plan nor the
    // result. Columnar segments are immutable, so the live directory is
    // the snapshot directory.
    const TableSnapshotView* view = scope.snapshot->TableView(table->name());
    if (view == nullptr) {
      return Status::Internal("search snapshot does not cover table '" +
                              table->name() + "'");
    }
    const ColumnStore* columnar = table->columnar();
    const uint64_t snap_rows =
        view->heap_meta.record_count +
        (columnar != nullptr ? columnar->row_count() : 0);
    if (snap_rows == 0) {
      continue;
    }
    if (options.mode == QueryMode::kIndexScan && !options_.build_indexes) {
      return Status::InvalidArgument(
          "index scan requested but the store has no indexes");
    }
    // kAuto and fused kSeqScan gather the table's seq-planned queries
    // into one pass; per-corner kSeqScan and index scans stay one task
    // per query.
    QueryTask pass{k, table, {}, true, QueryMode::kSeqScan};
    auto add_query = [&](const RangeQuery& query) {
      QueryMode mode = options.mode;
      if (mode == QueryMode::kAuto) {
        const PlanChoice choice =
            PlanRangeQuery(*view, make_predicate(query).conditions(),
                           options_.build_indexes);
        mode = choice.path == AccessPath::kIndexScan ? QueryMode::kIndexScan
                                                     : QueryMode::kSeqScan;
      }
      if (mode == QueryMode::kSeqScan &&
          (fused || options.mode == QueryMode::kAuto)) {
        pass.queries.push_back(query);
      } else {
        tasks.push_back(QueryTask{k, table, {query}, false, mode});
      }
    };
    for (int j = 1; j <= k; ++j) {
      add_query(RangeQuery{false, j});
    }
    for (int j = 1; j < k; ++j) {
      add_query(RangeQuery{true, j});
    }
    if (!pass.queries.empty()) {
      tasks.push_back(std::move(pass));
    }
  }

  // A search made only of passes runs them one after another, each
  // split into `partitions` heap-page runs; any other search fans its
  // tasks out at the search's width, each unpartitioned. Fan-outs never
  // nest.
  const bool only_passes =
      std::all_of(tasks.begin(), tasks.end(),
                  [](const QueryTask& task) { return task.pass; });
  const size_t partitions = only_passes ? scope.num_threads : 1;
  const size_t width = only_passes ? 1 : scope.num_threads;

  // Runs one task, collecting matches into `out` and execution counters
  // into `scan`. Every scan and index descent reads the search's frozen
  // snapshot, never the moving live tables, and checks the scope's
  // context at page granularity (index walks every
  // kGovernanceCheckInterval entries).
  auto run_task = [&](const QueryTask& task, std::vector<PairId>* out,
                      ScanStats* scan) -> Status {
    const int k = task.k;
    auto decode = [k](const char* record) {
      PairId id;
      id.t_d = DecodeDoubleColumn(record, TdCol(k));
      id.t_c = DecodeDoubleColumn(record, TcCol(k));
      id.t_b = DecodeDoubleColumn(record, TbCol(k));
      id.t_a = 0.0;  // resolved after dedup
      return id;
    };
    if (task.mode == QueryMode::kSeqScan) {
      std::vector<Predicate> predicates;
      predicates.reserve(task.queries.size());
      for (const RangeQuery& query : task.queries) {
        predicates.push_back(make_predicate(query));
      }
      return PartitionedScan(*task.table, predicates, scope, partitions,
                             decode, out, scan);
    }
    // Index scan: all conditions evaluate on the key; the heap fetch
    // only materializes the pair id.
    const RangeQuery& query = task.queries.front();
    IndexScanSpec spec = scope.index_spec();
    const std::string index_name =
        (query.is_line ? "ln" : "pt") + std::to_string(query.corner);
    SEGDIFF_ASSIGN_OR_RETURN(BPlusTree * tree,
                             task.table->GetIndex(index_name));
    spec.index = tree;
    spec.lower = IndexKey::LowerBound({-kInf, -kInf, -kInf, -kInf});
    spec.key_continue = [T](const IndexKey& key) { return key.vals[0] <= T; };
    if (!query.is_line) {
      spec.key_filter = [drop, V](const IndexKey& key) {
        return drop ? key.vals[1] <= V : key.vals[1] >= V;
      };
    } else {
      spec.key_filter = [drop, T, V](const IndexKey& key) {
        const double a_dt = key.vals[0];
        const double a_dv = key.vals[1];
        const double b_dt = key.vals[2];
        const double b_dv = key.vals[3];
        const bool ends_outside = drop
                                      ? (a_dv > V && b_dv < V)
                                      : (a_dv < V && b_dv > V);
        if (!ends_outside || !(b_dt > T) || b_dt <= a_dt) {
          return false;
        }
        const double at_T =
            a_dv + (b_dv - a_dv) / (b_dt - a_dt) * (T - a_dt);
        return drop ? at_T <= V : at_T >= V;
      };
    }
    return IndexScan(*task.table, spec, Predicate::True(),
                     CollectInto(scope.ctx->budget, out, decode), scan);
  };

  SearchStats* local = scope.stats;
  local->queries_issued = tasks.size();
  // Tasks that run concurrently each collect into a private result
  // vector and ScanStats, merged in task order so totals match the
  // serial path exactly; tasks on the caller alone collect straight
  // into the result. ParallelFor stops claiming tasks once the context
  // fires; in-flight tasks stop at their own page-level checks.
  const bool concurrent = width > 1 && tasks.size() > 1;
  std::vector<std::vector<PairId>> task_out(concurrent ? tasks.size() : 0);
  std::vector<ScanStats> task_scan(task_out.size());
  Status status =
      ParallelFor(tasks.size(), width, scope.ctx, [&](size_t i) -> Status {
        return QuarantineScanError(
            concurrent ? run_task(tasks[i], &task_out[i], &task_scan[i])
                       : run_task(tasks[i], results, &local->scan),
            "feature table '" + tasks[i].table->name() + "'");
      });
  // Merge even on failure: a budget-truncated search keeps what the
  // tasks collected before the breach.
  for (size_t i = 0; i < task_out.size(); ++i) {
    local->scan.Add(task_scan[i]);
    results->insert(results->end(), task_out[i].begin(), task_out[i].end());
  }
  return status;
}

Status SegDiffIndex::Checkpoint() { return store_.Checkpoint(); }

Status SegDiffIndex::Compact(const std::string& destination_path) {
  return store_.Compact(destination_path);
}

Status SegDiffIndex::Repair(const std::string& destination_path,
                            RepairReport* report) {
  return store_.Repair(destination_path, report);
}

Status SegDiffIndex::DropCaches() {
  Status status = store_.DropCaches();
  std::lock_guard<std::mutex> lock(lazy_mu_);
  seg_starts_.clear();
  seg_ends_.clear();
  segment_dir_fresh_ = false;  // force re-read through the (cold) pool
  return status;
}

SegDiffSizes SegDiffIndex::GetSizes() const {
  SegDiffSizes sizes;
  for (int kind = 0; kind < 2; ++kind) {
    for (int k = 1; k <= 3; ++k) {
      const Table* table = feature_tables_[kind][k - 1];
      sizes.feature_bytes += table->DataSizeBytes();
      sizes.feature_rows += table->row_count();
      sizes.index_bytes += table->IndexSizeBytes();
    }
  }
  sizes.segment_dir_bytes = segments_table_->DataSizeBytes();
  sizes.file_bytes = store_.db()->SizeStats().file_bytes;
  return sizes;
}

const ExtractorStats& SegDiffIndex::extractor_stats() const {
  return extractor_->stats();
}

uint64_t SegDiffIndex::num_segments() const {
  return segments_table_->row_count();
}

}  // namespace segdiff
