// Small string helpers shared by the parser, CSV reader, and report printers.

#ifndef RUDOLF_UTIL_STRING_UTIL_H_
#define RUDOLF_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace rudolf {

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Case-sensitive prefix test.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Lowercases ASCII characters.
std::string ToLower(std::string_view s);

/// Parses a signed 64-bit integer; the whole string must be consumed.
Result<int64_t> ParseInt64(std::string_view s);

/// Parses a double; the whole string must be consumed.
Result<double> ParseDouble(std::string_view s);

/// Reads the integer environment variable `name` (the `RUDOLF_*` knobs):
/// nullopt when it is unset or empty. A value that is not a whole integer
/// (ParseInt64), or lies outside [lo, hi], logs one warning naming the
/// variable and the accepted range and also yields nullopt, so the caller
/// keeps its default.
std::optional<int64_t> IntFromEnv(
    const char* name, int64_t lo,
    int64_t hi = std::numeric_limits<int64_t>::max());

/// Formats minutes-since-midnight as "HH:MM" (wraps modulo 24h, keeping the
/// day offset out of the rendering). Negative values are clamped to 0.
std::string FormatClock(int64_t minutes);

/// Parses "HH:MM" into minutes since midnight.
Result<int64_t> ParseClock(std::string_view s);

/// Printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace rudolf

#endif  // RUDOLF_UTIL_STRING_UTIL_H_
