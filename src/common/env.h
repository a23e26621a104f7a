// Environment-variable configuration helpers, and the strict number
// parser they share with segdiff_cli's numeric flags.

#ifndef SEGDIFF_COMMON_ENV_H_
#define SEGDIFF_COMMON_ENV_H_

#include <cstdint>
#include <optional>
#include <string>

namespace segdiff {

/// Parses the whole of `text` as a base-10 number of type T (int,
/// int64_t, uint64_t or double): no whitespace, no '+', no '-' for
/// uint64_t, in range for T, and finite for double. nullopt otherwise.
template <typename T>
std::optional<T> ParseNumber(const std::string& text);

/// Returns the integer value of environment variable `name`, or
/// `default_value` when unset or unparsable.
int64_t GetEnvInt64(const char* name, int64_t default_value);

/// Returns the double value of environment variable `name`, or
/// `default_value` when unset or unparsable.
double GetEnvDouble(const char* name, double default_value);

/// Returns the string value of environment variable `name`, or
/// `default_value` when unset.
std::string GetEnvString(const char* name, const std::string& default_value);

}  // namespace segdiff

#endif  // SEGDIFF_COMMON_ENV_H_
