#include "segdiff/exh_index.h"

#include <algorithm>
#include <limits>

#include "query/planner.h"
#include "query/predicate.h"

namespace segdiff {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Catalog meta blob holding the resumable ingest state.
constexpr char kIngestStateKey[] = "exh.ingest";
constexpr uint32_t kIngestStateMagic = 0x4558494E;  // "EXIN"

}  // namespace

ExhIndex::ExhIndex(ExhOptions options)
    : options_(options),
      store_(options_.admission,
             {kIngestStateKey, kIngestStateMagic,
              [this](double t, double v) { return Apply(t, v); },
              // Pairs materialize on append, so a flush (or a replayed
              // flush marker) only closes the group commit.
              /*flush=*/nullptr,
              [this](uint64_t observations, ByteWriter* w) {
                SaveState(observations, w);
              },
              [this](ByteReader* r, uint64_t* observations) {
                return RestoreState(r, observations);
              }}) {}

Result<std::unique_ptr<ExhIndex>> ExhIndex::Open(const std::string& path,
                                                 const ExhOptions& options) {
  if (options.window_s <= 0.0) {
    return Status::InvalidArgument("window_s must be positive");
  }
  std::unique_ptr<ExhIndex> index(new ExhIndex(options));
  SEGDIFF_RETURN_IF_ERROR(index->store_.Open(
      path, options, /*create_if_missing=*/true,
      [&index] { return index->LayOut(); }));
  return index;
}

Status ExhIndex::LayOut() {
  Database* db = store_.db();
  if (db->tables().empty()) {
    SEGDIFF_ASSIGN_OR_RETURN(TableSchema schema,
                             DoubleSchema({"dt", "dv", "t"}));
    SEGDIFF_ASSIGN_OR_RETURN(table_, db->CreateTable("exh", schema));
    if (options_.build_index) {
      SEGDIFF_RETURN_IF_ERROR(
          table_->CreateIndex("ptdv", {"dt", "dv"}).status());
    }
  } else {
    SEGDIFF_ASSIGN_OR_RETURN(table_, db->GetTable("exh"));
    options_.build_index = !table_->indexes().empty();
  }
  return Status::OK();
}

Status ExhIndex::AppendObservation(double t, double v) {
  return store_.Append(t, v);
}

Status ExhIndex::FlushPending() { return store_.Flush(); }

Status ExhIndex::Apply(double t, double v) {
  // window_ persists across calls (and reopens): an append boundary
  // must not lose the pairs between the retained tail and this
  // observation.
  if (!window_.empty() && t <= window_.back().t) {
    return Status::InvalidArgument(
        "chunked ingest requires strictly increasing time stamps");
  }
  while (!window_.empty() && t - window_.front().t > options_.window_s) {
    window_.pop_front();
  }
  for (const Sample& earlier : window_) {
    SEGDIFF_RETURN_IF_ERROR(
        table_->InsertDoubles({t - earlier.t, v - earlier.v, earlier.t})
            .status());
  }
  window_.push_back(Sample{t, v});
  return Status::OK();
}

void ExhIndex::SaveState(uint64_t observations, ByteWriter* w) const {
  w->F64(options_.window_s);
  w->U64(observations);
  w->U32(static_cast<uint32_t>(window_.size()));
  for (const Sample& sample : window_) {
    w->F64(sample.t);
    w->F64(sample.v);
  }
}

Status ExhIndex::RestoreState(ByteReader* r, uint64_t* observations) {
  // The window length is a property of the store, not of this Open call.
  SEGDIFF_ASSIGN_OR_RETURN(options_.window_s, r->F64());
  SEGDIFF_ASSIGN_OR_RETURN(*observations, r->U64());
  SEGDIFF_ASSIGN_OR_RETURN(uint32_t count, r->U32());
  window_.clear();
  for (uint32_t i = 0; i < count; ++i) {
    Sample sample;
    SEGDIFF_ASSIGN_OR_RETURN(sample.t, r->F64());
    SEGDIFF_ASSIGN_OR_RETURN(sample.v, r->F64());
    if (!window_.empty() && sample.t <= window_.back().t) {
      return Status::Corruption("exh ingest-state window out of order");
    }
    window_.push_back(sample);
  }
  return Status::OK();
}

Result<std::vector<ExhEvent>> ExhIndex::SearchDrops(
    double T, double V, const SearchOptions& options, SearchStats* stats) {
  return Search(SearchKind::kDrop, T, V, options, stats);
}

Result<std::vector<ExhEvent>> ExhIndex::SearchJumps(
    double T, double V, const SearchOptions& options, SearchStats* stats) {
  return Search(SearchKind::kJump, T, V, options, stats);
}

Result<std::vector<ExhEvent>> ExhIndex::Search(SearchKind kind, double T,
                                               double V,
                                               const SearchOptions& options,
                                               SearchStats* stats) {
  std::vector<ExhEvent> events;
  SEGDIFF_RETURN_IF_ERROR(store_.Search(
      kind, T, V, options_.window_s, options, stats,
      [&](const SearchScope& scope) {
        return SearchScan(kind, T, V, options, scope, &events);
      },
      [&]() -> Result<uint64_t> {
        std::sort(events.begin(), events.end(),
                  [](const ExhEvent& a, const ExhEvent& b) {
                    if (a.t_start != b.t_start) return a.t_start < b.t_start;
                    return a.t_end < b.t_end;
                  });
        return events.size();
      }));
  return events;
}

Status ExhIndex::SearchScan(SearchKind kind, double T, double V,
                            const SearchOptions& options,
                            const SearchScope& scope,
                            std::vector<ExhEvent>* events) {
  const bool drop = kind == SearchKind::kDrop;
  // Zone maps feed both the pruned sequential scan and the kAuto cost
  // model; this search's (earlier) snapshot scans unpruned if the map is
  // built only now, which is correct, just slower.
  SEGDIFF_RETURN_IF_ERROR(store_.EnsureZoneMaps({table_}));

  const TableSnapshotView* snap_view =
      scope.snapshot->TableView(table_->name());
  if (snap_view == nullptr) {
    return Status::Internal("snapshot is missing the exh pair table");
  }

  Predicate predicate;
  predicate.And(0, CmpOp::kLe, T);
  predicate.And(1, drop ? CmpOp::kLe : CmpOp::kGe, V);

  QueryMode mode = options.mode;
  if (mode == QueryMode::kAuto) {
    // Plan from the snapshot's statistics, not the live table's — the
    // scan below reads the snapshot, so the cost model must describe it.
    const PlanChoice choice =
        PlanRangeQuery(*snap_view, table_->columnar(), predicate.conditions(),
                       options_.build_index);
    mode = choice.path == AccessPath::kIndexScan ? QueryMode::kIndexScan
                                                 : QueryMode::kSeqScan;
  }
  auto decode = [](const char* record) {
    ExhEvent event;
    event.dv = DecodeDoubleColumn(record, 1);
    event.t_start = DecodeDoubleColumn(record, 2);
    event.t_end = event.t_start + DecodeDoubleColumn(record, 0);
    return event;
  };
  ++scope.stats->queries_issued;
  if (mode == QueryMode::kSeqScan) {
    // Partitioned across the pool when the search has one; events are
    // re-sorted afterwards, so collection order does not matter.
    return QuarantineScanError(
        PartitionedScan(*table_, predicate, scope, decode, events,
                        &scope.stats->scan),
        "the exh pair table");
  }
  if (!options_.build_index) {
    return Status::InvalidArgument(
        "index scan requested but the index was not built");
  }
  SEGDIFF_ASSIGN_OR_RETURN(BPlusTree * tree, table_->GetIndex("ptdv"));
  IndexScanSpec spec = scope.index_spec();
  spec.index = tree;
  spec.lower = IndexKey::LowerBound({-kInf, -kInf});
  spec.key_continue = [T](const IndexKey& key) { return key.vals[0] <= T; };
  spec.key_filter = [drop, V](const IndexKey& key) {
    return drop ? key.vals[1] <= V : key.vals[1] >= V;
  };
  return QuarantineScanError(
      IndexScan(*table_, spec, Predicate::True(),
                CollectInto(scope.ctx->budget, events, decode),
                &scope.stats->scan),
      "the exh pair table");
}

Status ExhIndex::Checkpoint() { return store_.Checkpoint(); }

Status ExhIndex::Compact(const std::string& destination_path) {
  return store_.Compact(destination_path);
}

Status ExhIndex::Repair(const std::string& destination_path,
                        RepairReport* report) {
  return store_.Repair(destination_path, report);
}

Status ExhIndex::DropCaches() { return store_.DropCaches(); }

ExhSizes ExhIndex::GetSizes() const {
  ExhSizes sizes;
  sizes.feature_bytes = table_->DataSizeBytes();
  sizes.feature_rows = table_->row_count();
  sizes.index_bytes = table_->IndexSizeBytes();
  sizes.file_bytes = store_.db()->SizeStats().file_bytes;
  return sizes;
}

}  // namespace segdiff
