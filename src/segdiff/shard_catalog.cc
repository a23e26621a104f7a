#include "segdiff/shard_catalog.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "common/bytes.h"

namespace segdiff {
namespace {

// Both manifests are framed alike (little endian): an 8-byte magic
// whose last bytes are the version, a body, then the CRC32C of every
// byte before it (ByteWriter::Seal).
//
// Shard catalog, magic "SDSHRD01":
//   u32 sensor_count | u32 sensors_per_shard | u32 shard_count
//   per shard: u32 first_sensor | u32 sensor_count | u16 dir_len | dir
constexpr char kMagic[8] = {'S', 'D', 'S', 'H', 'R', 'D', '0', '1'};
constexpr size_t kMinShardEntryBytes = 4 + 4 + 2;

// Migration manifest, magic "SDMIG001":
//   u32 source catalog length | u32 target catalog length
//   source catalog bytes (a whole sealed ShardCatalog::Encode blob)
//   target catalog bytes
constexpr char kMigrationMagic[8] = {'S', 'D', 'M', 'I', 'G', '0', '0', '1'};

std::string ManifestPath(const std::string& root) {
  return root + "/" + ShardCatalog::kManifestName;
}

std::string MigrationPath(const std::string& root) {
  return root + "/" + MigrationManifest::kFileName;
}

/// Unseals a manifest and checks its magic, leaving the reader at the
/// body.
Result<ByteReader> OpenManifest(const char* data, size_t size,
                                const char (&magic)[8]) {
  SEGDIFF_ASSIGN_OR_RETURN(ByteReader r, ByteReader::Unseal(data, size));
  SEGDIFF_ASSIGN_OR_RETURN(const std::string found, r.Bytes(sizeof(magic)));
  if (found != std::string(magic, sizeof(magic))) {
    return Status::Corruption("bad magic or unsupported version");
  }
  return r;
}

/// Write-temp-then-rename: `raw` lands at `path` atomically. A crash
/// before the rename leaves at worst a stale `path.tmp` (overwritten by
/// the next save); a crash after it leaves the complete new file. The
/// final SyncDir makes the swap durable.
Status AtomicWriteFile(Vfs* vfs, const std::string& path,
                       const std::string& raw) {
  const std::string tmp = path + ".tmp";
  Status status;
  {
    Result<std::unique_ptr<RandomAccessFile>> file =
        vfs->OpenFile(tmp, /*create=*/true);
    if (!file.ok()) {
      return file.status();
    }
    status = (*file)->Write(0, raw.data(), raw.size());
    if (status.ok()) status = (*file)->Truncate(raw.size());
    if (status.ok()) status = (*file)->Sync();
  }
  if (status.ok()) status = vfs->Rename(tmp, path);
  if (!status.ok()) {
    // Don't leave the torn temp behind. Best effort: if the device is
    // gone this fails too, and open-time recovery sweeps the stale tmp.
    (void)vfs->RemoveFile(tmp);
    return status;
  }
  return vfs->SyncDir(path);
}

/// Reads a whole manifest-sized file into memory.
Result<std::string> ReadFile(Vfs* vfs, const std::string& path) {
  SEGDIFF_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> file,
                           vfs->OpenFile(path, /*create=*/false));
  SEGDIFF_ASSIGN_OR_RETURN(const uint64_t size, file->Size());
  std::string raw(size, '\0');
  if (size > 0) {
    SEGDIFF_RETURN_IF_ERROR(file->Read(0, raw.size(), raw.data()));
  }
  return raw;
}

}  // namespace

constexpr const char* ShardCatalog::kManifestName;
constexpr const char* MigrationManifest::kFileName;

ShardCatalog ShardCatalog::Place(int sensor_count, int sensors_per_shard,
                                 const std::string& dir_prefix) {
  ShardCatalog catalog;
  catalog.sensor_count_ = sensor_count;
  catalog.sensors_per_shard_ =
      sensors_per_shard > 0 ? sensors_per_shard : sensor_count;
  if (catalog.sensors_per_shard_ <= 0) {
    catalog.sensors_per_shard_ = 1;
  }
  for (int first = 0; first < sensor_count;
       first += catalog.sensors_per_shard_) {
    ShardInfo info;
    info.first_sensor = first;
    info.sensor_count =
        std::min(catalog.sensors_per_shard_, sensor_count - first);
    char seq[8];
    std::snprintf(seq, sizeof(seq), "%05zu", catalog.shards_.size());
    info.dir = dir_prefix + seq;
    catalog.shards_.push_back(std::move(info));
  }
  return catalog;
}

Result<ShardCatalog> ShardCatalog::Decode(const char* data, size_t size,
                                          const std::string& what) {
  ShardCatalog catalog;
  const Status status = [&]() -> Status {
    SEGDIFF_ASSIGN_OR_RETURN(ByteReader r, OpenManifest(data, size, kMagic));
    SEGDIFF_ASSIGN_OR_RETURN(const uint32_t sensor_count, r.U32());
    SEGDIFF_ASSIGN_OR_RETURN(const uint32_t sensors_per_shard, r.U32());
    catalog.sensor_count_ = static_cast<int>(sensor_count);
    catalog.sensors_per_shard_ = static_cast<int>(sensors_per_shard);
    if (catalog.sensor_count_ < 0 || catalog.sensors_per_shard_ <= 0) {
      return Status::Corruption("invalid header counts");
    }
    SEGDIFF_ASSIGN_OR_RETURN(const uint32_t shard_count,
                             r.Count(kMinShardEntryBytes));
    int64_t next_sensor = 0;
    for (uint32_t i = 0; i < shard_count; ++i) {
      ShardInfo info;
      SEGDIFF_ASSIGN_OR_RETURN(const uint32_t first_sensor, r.U32());
      SEGDIFF_ASSIGN_OR_RETURN(const uint32_t shard_sensors, r.U32());
      SEGDIFF_ASSIGN_OR_RETURN(info.dir, r.Str());
      info.first_sensor = static_cast<int>(first_sensor);
      info.sensor_count = static_cast<int>(shard_sensors);
      // The shard ranges must partition [0, sensor_count) in order, each
      // in a directory of its own — anything else would silently drop or
      // double-search sensors, or route stores into the root.
      if (info.first_sensor != next_sensor || info.sensor_count <= 0 ||
          info.dir.empty()) {
        return Status::Corruption(
            "shard entries do not partition the sensor space into shard "
            "directories");
      }
      next_sensor += info.sensor_count;
      catalog.shards_.push_back(std::move(info));
    }
    SEGDIFF_RETURN_IF_ERROR(r.End());
    if (next_sensor != catalog.sensor_count_) {
      return Status::Corruption("shard ranges do not cover all sensors");
    }
    return Status::OK();
  }();
  if (!status.ok()) {
    return Status::Corruption("shard catalog " + what + ": " +
                              std::string(status.message()));
  }
  return catalog;
}

std::string ShardCatalog::Encode() const {
  ByteWriter w;
  w.Bytes(kMagic, sizeof(kMagic));
  w.U32(static_cast<uint32_t>(sensor_count_));
  w.U32(static_cast<uint32_t>(sensors_per_shard_));
  w.U32(static_cast<uint32_t>(shards_.size()));
  for (const ShardInfo& info : shards_) {
    w.U32(static_cast<uint32_t>(info.first_sensor));
    w.U32(static_cast<uint32_t>(info.sensor_count));
    w.Str(info.dir);
  }
  w.Seal();
  return w.Take();
}

Result<ShardCatalog> ShardCatalog::Load(Vfs* vfs, const std::string& root) {
  const std::string path = ManifestPath(root);
  if (!vfs->FileExists(path)) {
    return Status::NotFound("no shard catalog: " + path);
  }
  SEGDIFF_ASSIGN_OR_RETURN(const std::string raw, ReadFile(vfs, path));
  return Decode(raw.data(), raw.size(), path);
}

Status ShardCatalog::Save(Vfs* vfs, const std::string& root) const {
  return AtomicWriteFile(vfs, ManifestPath(root), Encode());
}

std::string ShardCatalog::ShardDirPath(const std::string& root,
                                       size_t index) const {
  return root + "/" + shards_[index].dir;
}

std::string ShardCatalog::StorePath(const std::string& root,
                                    int sensor) const {
  return ShardDirPath(root, ShardOf(sensor)) + "/sensor" +
         std::to_string(sensor) + ".db";
}

Result<MigrationManifest> MigrationManifest::Load(Vfs* vfs,
                                                  const std::string& root) {
  const std::string path = MigrationPath(root);
  if (!vfs->FileExists(path)) {
    return Status::NotFound("no migration manifest: " + path);
  }
  SEGDIFF_ASSIGN_OR_RETURN(const std::string raw, ReadFile(vfs, path));
  std::string source_raw;
  std::string target_raw;
  const Status status = [&]() -> Status {
    SEGDIFF_ASSIGN_OR_RETURN(
        ByteReader r, OpenManifest(raw.data(), raw.size(), kMigrationMagic));
    SEGDIFF_ASSIGN_OR_RETURN(const uint32_t source_len, r.U32());
    SEGDIFF_ASSIGN_OR_RETURN(const uint32_t target_len, r.U32());
    SEGDIFF_ASSIGN_OR_RETURN(source_raw, r.Bytes(source_len));
    SEGDIFF_ASSIGN_OR_RETURN(target_raw, r.Bytes(target_len));
    return r.End();
  }();
  if (!status.ok()) {
    return Status::Corruption("migration manifest " + path + ": " +
                              std::string(status.message()));
  }
  MigrationManifest manifest;
  SEGDIFF_ASSIGN_OR_RETURN(
      manifest.source, ShardCatalog::Decode(source_raw.data(),
                                            source_raw.size(),
                                            path + " (source)"));
  SEGDIFF_ASSIGN_OR_RETURN(
      manifest.target, ShardCatalog::Decode(target_raw.data(),
                                            target_raw.size(),
                                            path + " (target)"));
  return manifest;
}

Status MigrationManifest::Save(Vfs* vfs, const std::string& root) const {
  const std::string source_raw = source.Encode();
  const std::string target_raw = target.Encode();
  ByteWriter w;
  w.Bytes(kMigrationMagic, sizeof(kMigrationMagic));
  w.U32(static_cast<uint32_t>(source_raw.size()));
  w.U32(static_cast<uint32_t>(target_raw.size()));
  w.Bytes(source_raw);
  w.Bytes(target_raw);
  w.Seal();
  return AtomicWriteFile(vfs, MigrationPath(root), w.Take());
}

Status MigrationManifest::Remove(Vfs* vfs, const std::string& root) {
  const std::string path = MigrationPath(root);
  Status status = vfs->RemoveFile(path);
  if (status.IsNotFound()) {
    return Status::OK();
  }
  SEGDIFF_RETURN_IF_ERROR(status);
  return vfs->SyncDir(path);
}

}  // namespace segdiff
