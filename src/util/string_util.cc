#include "util/string_util.h"

#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/logging.h"

namespace rudolf {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

Result<int64_t> ParseInt64(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return Status::ParseError("empty integer");
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE) return Status::ParseError("integer out of range: " + buf);
  if (end != buf.c_str() + buf.size()) {
    return Status::ParseError("trailing characters in integer: " + buf);
  }
  return static_cast<int64_t>(v);
}

std::optional<int64_t> IntFromEnv(const char* name, int64_t lo, int64_t hi) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return std::nullopt;
  Result<int64_t> v = ParseInt64(env);
  if (v.ok() && *v >= lo && *v <= hi) return *v;
  std::string range = hi == std::numeric_limits<int64_t>::max()
                          ? ">= " + std::to_string(lo)
                          : "in [" + std::to_string(lo) + ", " +
                                std::to_string(hi) + "]";
  RUDOLF_LOG(Warning) << "ignoring " << name << "='" << env
                      << "': want an integer " << range;
  return std::nullopt;
}

Result<double> ParseDouble(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return Status::ParseError("empty double");
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) return Status::ParseError("double out of range: " + buf);
  if (end != buf.c_str() + buf.size()) {
    return Status::ParseError("trailing characters in double: " + buf);
  }
  return v;
}

std::string FormatClock(int64_t minutes) {
  if (minutes < 0) minutes = 0;
  int64_t day_min = minutes % (24 * 60);
  return StringPrintf("%02d:%02d", static_cast<int>(day_min / 60),
                      static_cast<int>(day_min % 60));
}

Result<int64_t> ParseClock(std::string_view s) {
  s = Trim(s);
  size_t colon = s.find(':');
  if (colon == std::string_view::npos) {
    return Status::ParseError("expected HH:MM, got: " + std::string(s));
  }
  RUDOLF_ASSIGN_OR_RETURN(int64_t h, ParseInt64(s.substr(0, colon)));
  RUDOLF_ASSIGN_OR_RETURN(int64_t m, ParseInt64(s.substr(colon + 1)));
  if (h < 0 || h > 23 || m < 0 || m > 59) {
    return Status::ParseError("clock out of range: " + std::string(s));
  }
  return h * 60 + m;
}

std::string StringPrintf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int needed = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

}  // namespace rudolf
