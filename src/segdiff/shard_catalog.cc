#include "segdiff/shard_catalog.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "common/coding.h"
#include "common/crc32c.h"

namespace segdiff {
namespace {

// Manifest layout (little-endian, CRC32C-framed):
//   [0,8)   magic "SDSHRD01" (version in the last two bytes)
//   [8,12)  u32 sensor_count
//   [12,16) u32 sensors_per_shard
//   [16,20) u32 shard_count
//   then per shard: u32 first_sensor, u32 sensor_count,
//                   u16 dir_len, dir bytes
//   trailing u32: CRC32C of every preceding byte
constexpr char kMagic[8] = {'S', 'D', 'S', 'H', 'R', 'D', '0', '1'};
constexpr size_t kHeaderSize = 20;

// Migration manifest layout (little-endian, CRC32C-framed):
//   [0,8)   magic "SDMIG001"
//   [8,12)  u32 source catalog length
//   [12,16) u32 target catalog length
//   source catalog bytes (a full CRC-framed ShardCatalog::Encode blob)
//   target catalog bytes
//   trailing u32: CRC32C of every preceding byte
constexpr char kMigrationMagic[8] = {'S', 'D', 'M', 'I', 'G', '0', '0', '1'};
constexpr size_t kMigrationHeaderSize = 16;

std::string ManifestPath(const std::string& root) {
  return root + "/" + ShardCatalog::kManifestName;
}

std::string MigrationPath(const std::string& root) {
  return root + "/" + MigrationManifest::kFileName;
}

Status CorruptManifest(const std::string& path, const std::string& why) {
  return Status::Corruption("shard catalog " + path + ": " + why);
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
  if (size < kHeaderSize + 4) {
    return CorruptManifest(what, "truncated (" + std::to_string(size) +
                                     " bytes)");
  }
  const uint32_t stored_crc = DecodeFixed32(data + size - 4);
  const uint32_t actual_crc = Crc32c(data, size - 4);
  if (stored_crc != actual_crc) {
    return CorruptManifest(what, "checksum mismatch");
  }
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return CorruptManifest(what, "bad magic or unsupported version");
  }

  ShardCatalog catalog;
  catalog.sensor_count_ = static_cast<int>(DecodeFixed32(data + 8));
  catalog.sensors_per_shard_ = static_cast<int>(DecodeFixed32(data + 12));
  const uint32_t shard_count = DecodeFixed32(data + 16);
  if (catalog.sensor_count_ < 0 || catalog.sensors_per_shard_ <= 0) {
    return CorruptManifest(what, "invalid header counts");
  }

  size_t pos = kHeaderSize;
  const size_t end = size - 4;
  int next_sensor = 0;
  for (uint32_t i = 0; i < shard_count; ++i) {
    if (pos + 10 > end) {
      return CorruptManifest(what, "shard entry overruns file");
    }
    ShardInfo info;
    info.first_sensor = static_cast<int>(DecodeFixed32(data + pos));
    info.sensor_count = static_cast<int>(DecodeFixed32(data + pos + 4));
    const uint16_t dir_len = DecodeFixed16(data + pos + 8);
    pos += 10;
    if (pos + dir_len > end) {
      return CorruptManifest(what, "shard directory name overruns file");
    }
    info.dir.assign(data + pos, dir_len);
    pos += dir_len;
    // The shard ranges must partition [0, sensor_count) in order, each
    // in a directory of its own — anything else would silently drop or
    // double-search sensors, or route stores into the root.
    if (info.first_sensor != next_sensor || info.sensor_count <= 0 ||
        info.dir.empty()) {
      return CorruptManifest(
          what, "shard entries do not partition the sensor space into "
                "shard directories");
    }
    next_sensor += info.sensor_count;
    catalog.shards_.push_back(std::move(info));
  }
  if (pos != end) {
    return CorruptManifest(what, "trailing bytes after shard entries");
  }
  if (next_sensor != catalog.sensor_count_) {
    return CorruptManifest(what,
                           "shard ranges do not cover all sensors");
  }
  return catalog;
}

std::string ShardCatalog::Encode() const {
  std::string raw(kHeaderSize, '\0');
  std::memcpy(raw.data(), kMagic, sizeof(kMagic));
  EncodeFixed32(raw.data() + 8, static_cast<uint32_t>(sensor_count_));
  EncodeFixed32(raw.data() + 12, static_cast<uint32_t>(sensors_per_shard_));
  EncodeFixed32(raw.data() + 16, static_cast<uint32_t>(shards_.size()));
  for (const ShardInfo& info : shards_) {
    char entry[10];
    EncodeFixed32(entry, static_cast<uint32_t>(info.first_sensor));
    EncodeFixed32(entry + 4, static_cast<uint32_t>(info.sensor_count));
    EncodeFixed16(entry + 8, static_cast<uint16_t>(info.dir.size()));
    raw.append(entry, sizeof(entry));
    raw.append(info.dir);
  }
  char crc[4];
  EncodeFixed32(crc, Crc32c(raw.data(), raw.size()));
  raw.append(crc, sizeof(crc));
  return raw;
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
  auto corrupt = [&](const std::string& why) {
    return Status::Corruption("migration manifest " + path + ": " + why);
  };
  if (raw.size() < kMigrationHeaderSize + 4) {
    return corrupt("truncated (" + std::to_string(raw.size()) + " bytes)");
  }
  const uint32_t stored_crc = DecodeFixed32(raw.data() + raw.size() - 4);
  if (stored_crc != Crc32c(raw.data(), raw.size() - 4)) {
    return corrupt("checksum mismatch");
  }
  if (std::memcmp(raw.data(), kMigrationMagic, sizeof(kMigrationMagic)) !=
      0) {
    return corrupt("bad magic or unsupported version");
  }
  const uint64_t source_len = DecodeFixed32(raw.data() + 8);
  const uint64_t target_len = DecodeFixed32(raw.data() + 12);
  if (kMigrationHeaderSize + source_len + target_len + 4 != raw.size()) {
    return corrupt("embedded catalog lengths overrun file");
  }
  MigrationManifest manifest;
  SEGDIFF_ASSIGN_OR_RETURN(
      manifest.source,
      ShardCatalog::Decode(raw.data() + kMigrationHeaderSize, source_len,
                           path + " (source)"));
  SEGDIFF_ASSIGN_OR_RETURN(
      manifest.target,
      ShardCatalog::Decode(raw.data() + kMigrationHeaderSize + source_len,
                           target_len, path + " (target)"));
  return manifest;
}

Status MigrationManifest::Save(Vfs* vfs, const std::string& root) const {
  const std::string source_raw = source.Encode();
  const std::string target_raw = target.Encode();
  std::string raw(kMigrationHeaderSize, '\0');
  std::memcpy(raw.data(), kMigrationMagic, sizeof(kMigrationMagic));
  EncodeFixed32(raw.data() + 8, static_cast<uint32_t>(source_raw.size()));
  EncodeFixed32(raw.data() + 12, static_cast<uint32_t>(target_raw.size()));
  raw += source_raw;
  raw += target_raw;
  char crc[4];
  EncodeFixed32(crc, Crc32c(raw.data(), raw.size()));
  raw.append(crc, sizeof(crc));
  return AtomicWriteFile(vfs, MigrationPath(root), raw);
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
