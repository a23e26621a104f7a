// SegDiffIndex: the paper's framework end to end.
//
// Ingest: series -> sliding-window segmentation (max error eps/2)
//         -> Algorithm 1 feature extraction -> minidb feature tables.
// Search: drop/jump queries (T, V) -> point + line range queries
//         (Section 4.4) over the feature tables, by sequential scan or
//         B+-tree index scan -> deduplicated segment-pair results.
//         kAuto (and fused kSeqScan) run a table's scanned queries as
//         one any-of pass, so each table is read once per search.
//
// Storage layout (one minidb file):
//   segments                 (t_s, v_s, t_e, v_e)     the segment directory
//   drop1|drop2|drop3        feature rows with 1/2/3 stored corners
//   jump1|jump2|jump3        likewise for jump search
// A k-corner feature row is [dt1, dv1, ..., dtk, dvk, t_d, t_c, t_b]
// (t_a is re-derived from the segment directory). Indexes per Section
// 4.4: a (dt_j, dv_j) B+-tree per corner (point queries) and a
// (dt_j, dv_j, dt_{j+1}, dv_{j+1}) B+-tree per frontier edge (line
// queries) — 9 indexes per search kind.

#ifndef SEGDIFF_SEGDIFF_SEGDIFF_INDEX_H_
#define SEGDIFF_SEGDIFF_SEGDIFF_INDEX_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "feature/extractor.h"
#include "feature/sink.h"
#include "segdiff/feature_store.h"
#include "segment/sliding_window.h"
#include "ts/series.h"

namespace segdiff {

/// Build-time configuration of a SegDiff store (storage and admission
/// settings in StoreOptions).
struct SegDiffOptions : StoreOptions {
  double eps = 0.2;            ///< user error tolerance (degrees C in the paper)
  double window_s = 28800.0;   ///< w: longest supported T (8 h default)
  bool collect_drops = true;
  bool collect_jumps = true;
  bool build_indexes = true;   ///< build the Section 4.4 B+-trees
  bool create_if_missing = true;  ///< false: only open an existing store
};

/// Space usage (paper Section 6 metrics).
struct SegDiffSizes {
  uint64_t feature_bytes = 0;   ///< heap pages of the 6 feature tables
  uint64_t feature_rows = 0;
  uint64_t index_bytes = 0;     ///< B+-tree pages over feature tables
  uint64_t segment_dir_bytes = 0;
  uint64_t file_bytes = 0;      ///< whole database file
};

class SegDiffIndex : public FeatureSink {
 public:
  /// Creates (or opens) the store backing file at `path`. Reopened
  /// stores resume appending exactly where ingest left off: the open
  /// segment, the extractor's pair window, and the build parameters
  /// (eps, window, collected kinds) are persisted in the store's
  /// ingest-state blob and restored here — persisted build parameters
  /// take precedence over the corresponding fields of `options`. A store
  /// holding rows but no blob fails with Corruption (see FeatureStore),
  /// leaving its files untouched. Closing saves the blob before the
  /// database checkpoints.
  static Result<std::unique_ptr<SegDiffIndex>> Open(
      const std::string& path, const SegDiffOptions& options);

  /// Feeds one observation through the streaming pipeline (segmenter ->
  /// segment directory + extractor -> feature tables). Features of the
  /// open trailing segment become searchable when the segment closes —
  /// naturally or via FlushPending(). In WAL mode the observation is
  /// logged before any page is touched; it is acknowledged durable at
  /// the next group commit. Safe to call concurrently with searches
  /// (which read snapshots); appends themselves are serialized.
  Status AppendObservation(double t, double v) override;

  /// Emits the open trailing segment (if any) and continues the next
  /// segment anchored at its endpoint, so the approximation stays
  /// contiguous. After this, every appended observation is searchable —
  /// and, in WAL mode, durable: FlushPending closes the group-commit
  /// window before returning (acknowledged means durable).
  Status FlushPending() override;

  /// Segments and extracts `series`, appending features; equivalent to
  /// AppendSeries + FlushPending. May be called repeatedly with later
  /// series chunks (time stamps must keep increasing); each call
  /// finalizes its own trailing segment, and the next chunk continues
  /// from the finalized endpoint.
  Status IngestSeries(const Series& series) override;

  /// Drop search: all segment pairs whose parallelogram indicates an
  /// event with 0 < dt <= T and dv <= V (V < 0). Sorted, deduplicated.
  Result<std::vector<PairId>> SearchDrops(double T, double V,
                                          const SearchOptions& options = {},
                                          SearchStats* stats = nullptr);

  /// Jump search (V > 0), symmetric.
  Result<std::vector<PairId>> SearchJumps(double T, double V,
                                          const SearchOptions& options = {},
                                          SearchStats* stats = nullptr);

  /// Persists everything (catalog, pages, header).
  Status Checkpoint();

  /// Checkpoint then evict the buffer pool: cold-cache experiments.
  Status DropCaches();

  /// Saves ingest state, then rewrites the store into a fresh file at
  /// `destination_path` (Database::CompactInto). Prefer this over
  /// db()->CompactInto(): it guarantees the compacted store's ingest
  /// blob is consistent with its tables, so it reopens as a valid
  /// resume point. The copy's tables are columnar and carry no
  /// indexes, so it reopens with build_indexes = false and refuses
  /// kIndexScan.
  Status Compact(const std::string& destination_path);

  /// Salvages everything still readable into a fresh store at
  /// `destination_path` (Database::Repair): corrupt pages and segments
  /// are skipped and accounted in `report`, surviving rows are copied
  /// into columnar segments, without indexes, as Compact does. The
  /// source store is not modified. The copied ingest blob reflects the
  /// current pipeline state, so the repaired store reopens as a valid
  /// resume point.
  Status Repair(const std::string& destination_path, RepairReport* report);

  SegDiffSizes GetSizes() const;
  const ExtractorStats& extractor_stats() const;
  uint64_t num_observations() const override {
    return store_.num_observations();
  }
  uint64_t num_segments() const;
  const SegDiffOptions& options() const { return options_; }
  Database* db() { return store_.db(); }

  /// The store's admission gate: governance counters for --stats, plus
  /// direct access for tests and front-ends (e.g. to hold slots or
  /// inspect queue depth). Searches are admitted through it implicitly.
  AdmissionController* admission_controller() { return store_.admission(); }

 private:
  SegDiffIndex(SegDiffOptions options);

  /// The engine side of Open: tables, then the streaming pipeline with
  /// any restored state applied.
  Status LayOut();
  Status InitTables();
  Status WriteFeatureRow(const PairFeatures& row);
  /// One completed segment from the segmenter: segment directory row +
  /// in-memory directory + extractor.
  Status OnSegment(const DataSegment& segment);
  /// Ingest-state payload: build parameters, observation count,
  /// segmenter and extractor state.
  void SaveState(uint64_t observations, ByteWriter* w) const;
  /// Adopts the persisted build parameters and parks the pipeline state
  /// until LayOut builds the pipeline.
  Status RestoreState(ByteReader* r, uint64_t* observations);
  Result<std::vector<PairId>> Search(SearchKind kind, double T, double V,
                                     const SearchOptions& options,
                                     SearchStats* stats);
  /// Plans and runs the range-query tasks against the scope's snapshot,
  /// appending raw (un-deduped) matches to `results`. On a memory-budget
  /// breach, whatever the tasks collected stays in `results` for the
  /// shell's truncation path.
  Status SearchImpl(SearchKind kind, double T, double V,
                    const SearchOptions& options, const SearchScope& scope,
                    std::vector<PairId>* results);
  /// Materializes t_a from the segment directory in collection order,
  /// then sorts and dedupes `results` on (t_d, t_c, t_b)
  /// (SortUniquePairs). A non-finite key or a t_b that starts no
  /// segment fails with Corruption.
  Status FinishPairs(std::vector<PairId>* results);
  /// Loads the directory from the segments table unless it is fresh; a
  /// table whose starts do not strictly increase fails with Corruption.
  Status EnsureSegmentDirectory();

  SegDiffOptions options_;
  Table* segments_table_ = nullptr;
  Table* feature_tables_[2][3] = {{nullptr, nullptr, nullptr},
                                  {nullptr, nullptr, nullptr}};

  std::unique_ptr<FeatureExtractor> extractor_;
  std::unique_ptr<SlidingWindowSegmenter> segmenter_;
  /// Restored state parked between RestoreState and pipeline
  /// construction in LayOut (the pipeline needs the adopted options).
  std::unique_ptr<ExtractorState> restored_extractor_;
  std::unique_ptr<SegmenterState> restored_segmenter_;
  /// Serializes the lazy segment-directory load and guards the
  /// directory below, which ingest keeps appending to while searches
  /// resolve t_a from it. Lock order: the store's ingest lock before
  /// lazy_mu_.
  std::mutex lazy_mu_;

  /// The segment directory in time order: segment i spans
  /// [seg_starts_[i], seg_ends_[i]], starts strictly increasing, so a
  /// pair's t_a is the end of the segment starting at its t_b. A fresh
  /// directory holds every segment and OnSegment appends to it; a stale
  /// one (reopened or cache-dropped store) is reloaded whole by the next
  /// search.
  std::vector<double> seg_starts_;
  std::vector<double> seg_ends_;
  bool segment_dir_fresh_ = false;

  std::vector<double> row_buf_;

  /// Declared last so it is destroyed first: closing saves the ingest
  /// state through the pipeline above.
  FeatureStore store_;
};

}  // namespace segdiff

#endif  // SEGDIFF_SEGDIFF_SEGDIFF_INDEX_H_
