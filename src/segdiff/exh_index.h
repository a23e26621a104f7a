// Exh: the paper's exhaustive baseline.
//
// Stores one row (dt, dv, t_anchor) for EVERY ordered pair of sampled
// observations whose gap is within the window w, in one table with an
// optional (dt, dv) B+-tree. A drop search is the single range query
// dt <= T AND dv <= V. Space is O(n * n_w) — the cost the paper's
// SegDiff design eliminates.

#ifndef SEGDIFF_SEGDIFF_EXH_INDEX_H_
#define SEGDIFF_SEGDIFF_EXH_INDEX_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "feature/sink.h"
#include "segdiff/feature_store.h"
#include "ts/series.h"

namespace segdiff {

/// Build-time configuration of an Exh store (storage and admission
/// settings in StoreOptions).
struct ExhOptions : StoreOptions {
  double window_s = 28800.0;  ///< w (same default as SegDiff)
  bool build_index = true;
};

/// One matching event (pair of sampled observations).
struct ExhEvent {
  double t_start = 0.0;
  double t_end = 0.0;
  double dv = 0.0;
};

struct ExhSizes {
  uint64_t feature_bytes = 0;
  uint64_t feature_rows = 0;
  uint64_t index_bytes = 0;
  uint64_t file_bytes = 0;
};

class ExhIndex : public FeatureSink {
 public:
  /// Opens (creating if missing) the Exh store at `path`. Reopened
  /// stores resume appending: the trailing sample window and the build
  /// window are persisted in the store's ingest-state blob and restored
  /// here, persisted parameters taking precedence over `options`. A
  /// store holding rows but no blob fails with Corruption (see
  /// FeatureStore), leaving its files untouched. Closing saves the blob
  /// before the database checkpoints.
  static Result<std::unique_ptr<ExhIndex>> Open(const std::string& path,
                                                const ExhOptions& options);

  /// Appends one observation: inserts a (dt, dv, t) row for every
  /// retained earlier sample within the window. Rows are immediately
  /// searchable; there is no buffered pending state. In WAL mode the
  /// observation is logged first and acknowledged durable at the next
  /// group commit. Safe to call concurrently with searches.
  Status AppendObservation(double t, double v) override;

  /// Exh materializes every pair eagerly in AppendObservation, so this
  /// only enforces the durability boundary: in WAL mode it closes the
  /// group-commit window (acknowledged means durable) and may
  /// auto-checkpoint a grown log.
  Status FlushPending() override;

  /// Appends all within-window pairs of `series`. May be called
  /// repeatedly with later series chunks (time stamps must keep
  /// increasing); the trailing window of samples is carried across calls
  /// so chunked and one-shot ingest produce identical tables (mirroring
  /// SegDiffIndex's chunked-ingest contract).
  Status IngestSeries(const Series& series) override {
    return FeatureSink::IngestSeries(series);
  }

  Result<std::vector<ExhEvent>> SearchDrops(double T, double V,
                                            const SearchOptions& options = {},
                                            SearchStats* stats = nullptr);
  Result<std::vector<ExhEvent>> SearchJumps(double T, double V,
                                            const SearchOptions& options = {},
                                            SearchStats* stats = nullptr);

  Status Checkpoint();
  Status DropCaches();

  /// Saves ingest state, then rewrites the store into a fresh file at
  /// `destination_path` (Database::CompactInto). Prefer this over
  /// db()->CompactInto(): it guarantees the compacted store's ingest
  /// blob is consistent with its table, so it reopens as a valid
  /// resume point. The copy's table is columnar and carries no index
  /// (see SegDiffIndex::Compact).
  Status Compact(const std::string& destination_path);

  /// Salvages everything still readable into a fresh store at
  /// `destination_path` (see SegDiffIndex::Repair).
  Status Repair(const std::string& destination_path, RepairReport* report);

  ExhSizes GetSizes() const;
  uint64_t num_observations() const override {
    return store_.num_observations();
  }
  const ExhOptions& options() const { return options_; }
  Database* db() { return store_.db(); }

  /// The store's admission gate (see SegDiffIndex::admission_controller).
  AdmissionController* admission_controller() { return store_.admission(); }

 private:
  explicit ExhIndex(ExhOptions options);
  /// The engine side of Open: creates or adopts the pair table.
  Status LayOut();
  /// Inserts a (dt, dv, t) row per retained sample within the window,
  /// then retains (t, v).
  Status Apply(double t, double v);
  /// Ingest-state payload: window length, observation count, trailing
  /// sample window.
  void SaveState(uint64_t observations, ByteWriter* w) const;
  Status RestoreState(ByteReader* r, uint64_t* observations);
  Result<std::vector<ExhEvent>> Search(SearchKind kind, double T, double V,
                                       const SearchOptions& options,
                                       SearchStats* stats);
  /// Plans and runs the single range query against the scope's snapshot,
  /// appending raw matches to `events` (kept on a budget breach for the
  /// shell's truncation path).
  Status SearchScan(SearchKind kind, double T, double V,
                    const SearchOptions& options, const SearchScope& scope,
                    std::vector<ExhEvent>* events);

  ExhOptions options_;
  Table* table_ = nullptr;
  /// Trailing `window_s` of already-ingested samples, so pairs spanning
  /// chunk boundaries are not dropped on the next IngestSeries call.
  std::deque<Sample> window_;

  /// Declared last so it is destroyed first: closing saves the ingest
  /// state from the window above.
  FeatureStore store_;
};

}  // namespace segdiff

#endif  // SEGDIFF_SEGDIFF_EXH_INDEX_H_
