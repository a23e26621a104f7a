#include "ts/io.h"

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "common/bytes.h"

namespace segdiff {
namespace {

constexpr uint32_t kBinaryMagic = 0x53474453;  // "SGDS"
constexpr uint32_t kBinaryVersion = 1;

/// RAII FILE* wrapper.
class File {
 public:
  File(const std::string& path, const char* mode)
      : file_(std::fopen(path.c_str(), mode)) {}
  ~File() {
    if (file_ != nullptr) {
      std::fclose(file_);
    }
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  bool ok() const { return file_ != nullptr; }
  std::FILE* get() const { return file_; }

 private:
  std::FILE* file_;
};

Status OpenError(const std::string& path) {
  return Status::IOError("cannot open " + path + ": " +
                         std::strerror(errno));
}

}  // namespace

Status WriteSeriesCsv(const Series& series, const std::string& path) {
  File file(path, "w");
  if (!file.ok()) {
    return OpenError(path);
  }
  if (std::fprintf(file.get(), "# segdiff-series v1\n") < 0) {
    return Status::IOError("write failed: " + path);
  }
  for (const Sample& sample : series) {
    if (std::fprintf(file.get(), "%.17g,%.17g\n", sample.t, sample.v) < 0) {
      return Status::IOError("write failed: " + path);
    }
  }
  return Status::OK();
}

Result<Series> ReadSeriesCsv(const std::string& path) {
  File file(path, "r");
  if (!file.ok()) {
    return OpenError(path);
  }
  Series series;
  char line[256];
  int line_number = 0;
  while (std::fgets(line, sizeof(line), file.get()) != nullptr) {
    ++line_number;
    const char* p = line;
    while (*p == ' ' || *p == '\t') {
      ++p;
    }
    if (*p == '#' || *p == '\n' || *p == '\0' || *p == '\r') {
      continue;
    }
    double t = 0.0;
    double v = 0.0;
    if (std::sscanf(p, "%lf,%lf", &t, &v) != 2) {
      return Status::Corruption("malformed CSV row at " + path + ":" +
                                std::to_string(line_number));
    }
    Status append = series.Append({t, v});
    if (!append.ok()) {
      return Status::Corruption("bad sample at " + path + ":" +
                                std::to_string(line_number) + ": " +
                                append.ToString());
    }
  }
  return series;
}

Status WriteSeriesBinary(const Series& series, const std::string& path) {
  File file(path, "wb");
  if (!file.ok()) {
    return OpenError(path);
  }
  ByteWriter w;
  w.U32(kBinaryMagic);
  w.U32(kBinaryVersion);
  w.U64(series.size());
  for (const Sample& sample : series) {
    w.F64(sample.t);
    w.F64(sample.v);
  }
  const std::string& bytes = w.str();
  if (std::fwrite(bytes.data(), 1, bytes.size(), file.get()) != bytes.size()) {
    return Status::IOError("write failed: " + path);
  }
  return Status::OK();
}

Result<Series> ReadSeriesBinary(const std::string& path) {
  File file(path, "rb");
  if (!file.ok()) {
    return OpenError(path);
  }
  std::string bytes;
  char chunk[4096];
  for (size_t n; (n = std::fread(chunk, 1, sizeof(chunk), file.get())) > 0;) {
    bytes.append(chunk, n);
  }
  Series series;
  const Status status = [&]() -> Status {
    ByteReader r(bytes);
    SEGDIFF_ASSIGN_OR_RETURN(const uint32_t magic, r.U32());
    SEGDIFF_ASSIGN_OR_RETURN(const uint32_t version, r.U32());
    if (magic != kBinaryMagic || version != kBinaryVersion) {
      return Status::Corruption("bad magic or unsupported version");
    }
    SEGDIFF_ASSIGN_OR_RETURN(const uint64_t count, r.Count<uint64_t>(16));
    for (uint64_t i = 0; i < count; ++i) {
      Sample sample;
      SEGDIFF_ASSIGN_OR_RETURN(sample.t, r.F64());
      SEGDIFF_ASSIGN_OR_RETURN(sample.v, r.F64());
      SEGDIFF_RETURN_IF_ERROR(series.Append(sample));
    }
    return r.End();
  }();
  if (!status.ok()) {
    return Status::Corruption(path + ": " + std::string(status.message()));
  }
  return series;
}

}  // namespace segdiff
