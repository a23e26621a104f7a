#include "common/env.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <type_traits>

namespace segdiff {

template <typename T>
std::optional<T> ParseNumber(const std::string& text) {
  // from_chars skips no whitespace, takes no '+' and no '-' for an
  // unsigned T, and reports a value out of T's range.
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) {
    return std::nullopt;
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) {
      return std::nullopt;
    }
  }
  return value;
}

template std::optional<int> ParseNumber<int>(const std::string&);
template std::optional<int64_t> ParseNumber<int64_t>(const std::string&);
template std::optional<uint64_t> ParseNumber<uint64_t>(const std::string&);
template std::optional<double> ParseNumber<double>(const std::string&);

int64_t GetEnvInt64(const char* name, int64_t default_value) {
  const char* raw = std::getenv(name);
  return raw == nullptr ? default_value
                        : ParseNumber<int64_t>(raw).value_or(default_value);
}

double GetEnvDouble(const char* name, double default_value) {
  const char* raw = std::getenv(name);
  return raw == nullptr ? default_value
                        : ParseNumber<double>(raw).value_or(default_value);
}

std::string GetEnvString(const char* name, const std::string& default_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) {
    return default_value;
  }
  return std::string(raw);
}

}  // namespace segdiff
