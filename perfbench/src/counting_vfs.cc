#include "counting_vfs.h"

#include <utility>

#include "common.h"
#include "trace.h"

namespace perfbench {

namespace {

bool EndsWith(const std::string& s, const char* suffix) {
  const std::string tail(suffix);
  return s.size() >= tail.size() &&
         s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
}

/// Times one wrapped call into `ns` while tracing is enabled.
class IoTimer {
 public:
  explicit IoTimer(std::atomic<uint64_t>* ns)
      : ns_(Tracer::Get().enabled() ? ns : nullptr),
        start_(ns_ != nullptr ? NowNs() : 0) {}
  ~IoTimer() {
    if (ns_ != nullptr) {
      ns_->fetch_add(static_cast<uint64_t>(NowNs() - start_),
                     std::memory_order_relaxed);
    }
  }
  IoTimer(const IoTimer&) = delete;
  IoTimer& operator=(const IoTimer&) = delete;

 private:
  std::atomic<uint64_t>* ns_;
  int64_t start_;
};

class CountingFile : public segdiff::RandomAccessFile {
 public:
  CountingFile(std::unique_ptr<segdiff::RandomAccessFile> base,
               CountingVfs::Counters* counters)
      : base_(std::move(base)), c_(counters) {}

  segdiff::Status Read(uint64_t offset, size_t n, char* buf) override {
    ScopedSpan span("vfs.read");
    IoTimer timer(&c_->read_ns);
    c_->read_bytes.fetch_add(n, std::memory_order_relaxed);
    return base_->Read(offset, n, buf);
  }
  segdiff::Status Write(uint64_t offset, const char* buf, size_t n) override {
    ScopedSpan span("vfs.write");
    IoTimer timer(&c_->write_ns);
    c_->write_bytes.fetch_add(n, std::memory_order_relaxed);
    return base_->Write(offset, buf, n);
  }
  segdiff::Status Truncate(uint64_t size) override {
    return base_->Truncate(size);
  }
  segdiff::Status Sync() override {
    ScopedSpan span("vfs.sync");
    IoTimer timer(&c_->sync_ns);
    c_->fsyncs.fetch_add(1, std::memory_order_relaxed);
    return base_->Sync();
  }
  segdiff::Result<uint64_t> Size() override { return base_->Size(); }

 private:
  std::unique_ptr<segdiff::RandomAccessFile> base_;
  CountingVfs::Counters* c_;
};

}  // namespace

const char* FileClassName(FileClass c) {
  switch (c) {
    case FileClass::kData: return "data";
    case FileClass::kWal: return "wal";
    case FileClass::kOther: return "other";
  }
  return "other";
}

FileClass ClassifyPath(const std::string& path) {
  if (EndsWith(path, ".wal")) return FileClass::kWal;
  if (EndsWith(path, ".db")) return FileClass::kData;
  return FileClass::kOther;
}

IoCounts IoCounts::Minus(const IoCounts& b) const {
  IoCounts d;
  d.read_bytes = read_bytes - b.read_bytes;
  d.write_bytes = write_bytes - b.write_bytes;
  d.fsyncs = fsyncs - b.fsyncs;
  d.read_ns = read_ns - b.read_ns;
  d.write_ns = write_ns - b.write_ns;
  d.sync_ns = sync_ns - b.sync_ns;
  return d;
}

segdiff::Result<std::unique_ptr<segdiff::RandomAccessFile>>
CountingVfs::OpenFile(const std::string& path, bool create) {
  ScopedSpan span("vfs.open");
  SEGDIFF_ASSIGN_OR_RETURN(std::unique_ptr<segdiff::RandomAccessFile> file,
                           base_->OpenFile(path, create));
  Counters* counters = &counters_[static_cast<int>(ClassifyPath(path))];
  return std::unique_ptr<segdiff::RandomAccessFile>(
      std::make_unique<CountingFile>(std::move(file), counters));
}

segdiff::Status CountingVfs::SyncDir(const std::string& path) {
  ScopedSpan span("vfs.syncdir");
  Counters& c = counters_[static_cast<int>(FileClass::kOther)];
  IoTimer timer(&c.sync_ns);
  c.fsyncs.fetch_add(1, std::memory_order_relaxed);
  return base_->SyncDir(path);
}

segdiff::Status CountingVfs::MakeDir(const std::string& path) {
  ScopedSpan span("vfs.mkdir");
  return base_->MakeDir(path);
}

bool CountingVfs::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

segdiff::Status CountingVfs::RemoveFile(const std::string& path) {
  ScopedSpan span("vfs.remove");
  return base_->RemoveFile(path);
}

segdiff::Status CountingVfs::Rename(const std::string& from,
                                    const std::string& to) {
  ScopedSpan span("vfs.rename");
  return base_->Rename(from, to);
}

segdiff::Result<std::vector<std::string>> CountingVfs::ListDir(
    const std::string& path) {
  return base_->ListDir(path);
}

segdiff::Status CountingVfs::RemoveDir(const std::string& path) {
  return base_->RemoveDir(path);
}

IoCounts CountingVfs::Counts(FileClass cls) const {
  const Counters& c = counters_[static_cast<int>(cls)];
  IoCounts out;
  out.read_bytes = c.read_bytes.load();
  out.write_bytes = c.write_bytes.load();
  out.fsyncs = c.fsyncs.load();
  out.read_ns = c.read_ns.load();
  out.write_ns = c.write_ns.load();
  out.sync_ns = c.sync_ns.load();
  return out;
}

}  // namespace perfbench
