// Series serialization: CSV (t,v per line, '#' comments) and a compact
// binary format with magic/version header.

#ifndef SEGDIFF_TS_IO_H_
#define SEGDIFF_TS_IO_H_

#include <string>

#include "common/result.h"
#include "ts/series.h"

namespace segdiff {

/// Writes "t,v" lines preceded by a "# segdiff-series v1" header comment.
Status WriteSeriesCsv(const Series& series, const std::string& path);

/// Reads a CSV written by WriteSeriesCsv (or any "t,v" file; blank lines
/// and '#' comments ignored). Fails with Corruption on malformed rows.
Result<Series> ReadSeriesCsv(const std::string& path);

/// Writes the binary format: magic, version, count, then packed samples.
Status WriteSeriesBinary(const Series& series, const std::string& path);

/// Reads the binary format; Corruption unless the file holds exactly the
/// samples its count names.
Result<Series> ReadSeriesBinary(const std::string& path);

}  // namespace segdiff

#endif  // SEGDIFF_TS_IO_H_
