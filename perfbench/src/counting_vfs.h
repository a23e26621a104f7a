// CountingVfs: a forwarding Vfs decorator that counts and times file IO.
//
// Every call passes straight through to the wrapped Vfs, unchanged —
// including every Sync and SyncDir, none of which is elided. Reads,
// writes and syncs are counted per file class: the store's data file
// (*.db), its write-ahead log (*.wal), and everything else (catalogs,
// manifests, temporary files, directories). While tracing is enabled
// each call is also timed and recorded as a span. Used only by the
// traced run.

#ifndef PERFBENCH_COUNTING_VFS_H_
#define PERFBENCH_COUNTING_VFS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/vfs.h"

namespace perfbench {

enum class FileClass : int { kData = 0, kWal = 1, kOther = 2 };
constexpr int kFileClasses = 3;
const char* FileClassName(FileClass c);
FileClass ClassifyPath(const std::string& path);

/// Counter totals for one file class.
struct IoCounts {
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  uint64_t fsyncs = 0;  ///< file Sync plus directory SyncDir
  /// Wall time inside the wrapped calls (only while tracing).
  uint64_t read_ns = 0;
  uint64_t write_ns = 0;
  uint64_t sync_ns = 0;

  IoCounts Minus(const IoCounts& before) const;
};

class CountingVfs : public segdiff::Vfs {
 public:
  explicit CountingVfs(segdiff::Vfs* base) : base_(base) {}

  segdiff::Result<std::unique_ptr<segdiff::RandomAccessFile>> OpenFile(
      const std::string& path, bool create) override;
  segdiff::Status SyncDir(const std::string& path) override;
  segdiff::Status MakeDir(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  segdiff::Status RemoveFile(const std::string& path) override;
  segdiff::Status Rename(const std::string& from,
                         const std::string& to) override;
  segdiff::Result<std::vector<std::string>> ListDir(
      const std::string& path) override;
  segdiff::Status RemoveDir(const std::string& path) override;

  IoCounts Counts(FileClass c) const;

  /// Per-class live counters, shared with the files this Vfs opens.
  struct Counters {
    std::atomic<uint64_t> read_bytes{0};
    std::atomic<uint64_t> write_bytes{0};
    std::atomic<uint64_t> fsyncs{0};
    std::atomic<uint64_t> read_ns{0};
    std::atomic<uint64_t> write_ns{0};
    std::atomic<uint64_t> sync_ns{0};
  };

 private:
  segdiff::Vfs* base_;
  Counters counters_[kFileClasses];
};

}  // namespace perfbench

#endif  // PERFBENCH_COUNTING_VFS_H_
