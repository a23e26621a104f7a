// ShardCatalog: the persistent manifest mapping sensor-id ranges to
// shard directories of a sharded TransectIndex deployment.
//
// A transect root directory holds one CATALOG file plus one
// subdirectory per shard; each shard directory holds the per-sensor
// SegDiff stores of a contiguous sensor-id range. Placement is
// consistent: sensor k always lives in shard k / sensors_per_shard, so
// routing a query needs no lookup table beyond the manifest. The
// manifest is versioned and CRC32C-framed — a torn or bit-rotted
// catalog surfaces as a loud Corruption naming the file, never as a
// silently mis-routed search. Every shard has a directory of its own;
// a manifest that names an empty one is Corruption too.

#ifndef SEGDIFF_SEGDIFF_SHARD_CATALOG_H_
#define SEGDIFF_SEGDIFF_SHARD_CATALOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/vfs.h"

namespace segdiff {

/// One contiguous sensor-id range and the directory (relative to the
/// transect root, never empty) holding its stores.
struct ShardInfo {
  int first_sensor = 0;
  int sensor_count = 0;
  std::string dir;
};

class ShardCatalog {
 public:
  /// Name of the manifest file under the transect root.
  static constexpr const char* kManifestName = "CATALOG";

  /// An empty catalog (no sensors); placeholder until Place/Load.
  ShardCatalog() = default;

  /// Consistent placement: `sensor_count` sensors split into
  /// ceil(n / sensors_per_shard) contiguous ranges named
  /// <dir_prefix>00000, <dir_prefix>00001, ... Rebalance targets pass a
  /// generation-tagged prefix ("g<sps>-shard") so a half-built new
  /// layout can never collide with the live one.
  static ShardCatalog Place(int sensor_count, int sensors_per_shard,
                            const std::string& dir_prefix = "shard");

  /// Reads and verifies the manifest at `<root>/CATALOG`. NotFound when
  /// no manifest exists; Corruption (loud, naming the file) on a bad
  /// magic, version, CRC, an inconsistent range partition, or an empty
  /// shard directory name.
  static Result<ShardCatalog> Load(Vfs* vfs, const std::string& root);

  /// Writes the manifest atomically: the framed bytes go to
  /// `<root>/CATALOG.tmp` (fsynced), which then renames over
  /// `<root>/CATALOG` and the directory is synced — a crash at any
  /// point leaves either the old manifest or the new one, never a torn
  /// file that bricks the transect on reopen.
  Status Save(Vfs* vfs, const std::string& root) const;

  /// The CRC32C-framed manifest bytes / their verifying parser.
  /// Factored out so MigrationManifest can embed whole catalogs;
  /// `what` names the container in Corruption messages.
  std::string Encode() const;
  static Result<ShardCatalog> Decode(const char* data, size_t size,
                                     const std::string& what);

  int sensor_count() const { return sensor_count_; }
  int sensors_per_shard() const { return sensors_per_shard_; }
  size_t shard_count() const { return shards_.size(); }
  const ShardInfo& shard(size_t index) const { return shards_[index]; }

  /// The shard holding `sensor` (consistent placement; sensor must be
  /// in [0, sensor_count)).
  size_t ShardOf(int sensor) const {
    return static_cast<size_t>(sensor / sensors_per_shard_);
  }

  /// Absolute directory of one shard.
  std::string ShardDirPath(const std::string& root, size_t index) const;

  /// Absolute path of one sensor's store file.
  std::string StorePath(const std::string& root, int sensor) const;

 private:
  int sensor_count_ = 0;
  int sensors_per_shard_ = 0;
  std::vector<ShardInfo> shards_;
};

/// MigrationManifest: the crash-safety intent record of an online
/// rebalance (TransectIndex::Rebalance). Written atomically to
/// `<root>/MIGRATION` *before* the first byte of the new layout exists;
/// removed only after the layout swap is complete and the losing side
/// is garbage-collected. Its presence at open time means a rebalance
/// was cut down mid-flight, and the embedded source/target catalogs
/// say exactly which two layouts could exist on disk:
///   - live CATALOG == target  -> the swap committed; finish the
///     garbage collection of the source layout (roll forward).
///   - live CATALOG == source  -> the swap never happened; delete the
///     half-built target layout (roll back).
/// Either way exactly one authoritative layout remains.
struct MigrationManifest {
  /// Name of the intent file under the transect root.
  static constexpr const char* kFileName = "MIGRATION";

  ShardCatalog source;  ///< the live layout when the rebalance started
  ShardCatalog target;  ///< the layout being built

  /// Reads and verifies `<root>/MIGRATION`. NotFound when no migration
  /// is in flight; Corruption on a bad magic, CRC, or embedded catalog.
  static Result<MigrationManifest> Load(Vfs* vfs, const std::string& root);

  /// Writes the manifest atomically (tmp + rename + dir sync), like
  /// ShardCatalog::Save.
  Status Save(Vfs* vfs, const std::string& root) const;

  /// Deletes `<root>/MIGRATION` and syncs the directory; deleting an
  /// absent manifest is OK (removal must be idempotent across repeated
  /// crash-recovery passes).
  static Status Remove(Vfs* vfs, const std::string& root);
};

}  // namespace segdiff

#endif  // SEGDIFF_SEGDIFF_SHARD_CATALOG_H_
