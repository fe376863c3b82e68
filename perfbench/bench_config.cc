#include "bench_config.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

#include "simd/simd.h"
#include "util/task_scheduler.h"

extern char** environ;

namespace perfbench {
namespace {

bool ParseUint(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || text[0] == '-') return false;
  *out = v;
  return true;
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const char* value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &n)) {
        *error = "--seed must be a non-negative integer";
        return false;
      }
      args->seed = n;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &n) || n < 1 || n > 600) {
        *error = "--seconds must be an integer in [1, 600]";
        return false;
      }
      args->seconds = static_cast<int>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        *error = "--trace must be 0 or 1";
        return false;
      }
      args->trace = value[0] == '1';
      have_trace = true;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    *error = "usage: perfbench --workload <name> --seed <n> --seconds <s> "
             "--trace <0|1>";
    return false;
  }
  return true;
}

std::vector<std::pair<std::string, std::string>> RudolfEnvironment() {
  std::vector<std::pair<std::string, std::string>> vars;
  for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
    std::string entry = *env;
    if (!StartsWith(entry, "RUDOLF_")) continue;
    size_t eq = entry.find('=');
    if (eq == std::string::npos) continue;
    vars.emplace_back(entry.substr(0, eq), entry.substr(eq + 1));
  }
  std::sort(vars.begin(), vars.end());
  return vars;
}

std::vector<std::string> ConfigChangingVariables() {
  static const char* const kExact[] = {
      "RUDOLF_THREADS",  "RUDOLF_INDEX", "RUDOLF_SIMD",
      "RUDOLF_COMPRESS", "RUDOLF_TRACE", "RUDOLF_METRICS_FLIGHT",
      "RUDOLF_METRICS_INTERVAL_MS"};
  static const char* const kPrefixes[] = {"RUDOLF_PIPELINE_", "RUDOLF_FLEET_"};
  std::vector<std::string> found;
  for (const auto& [name, value] : RudolfEnvironment()) {
    bool hit = std::find_if(std::begin(kExact), std::end(kExact),
                            [&](const char* v) { return name == v; }) !=
               std::end(kExact);
    for (const char* prefix : kPrefixes) hit = hit || StartsWith(name, prefix);
    if (hit) found.push_back(name);
  }
  return found;
}

std::string ConfigStamp(const Args& args) {
  std::ostringstream out;
  out << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
      << ", \"seconds\": " << args.seconds
      << ", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"scheduler_width\": "
      << rudolf::TaskScheduler::Shared()->num_threads()
      << ", \"simd_tier\": \""
      << rudolf::simd::TierName(rudolf::simd::ActiveTier()) << "\""
      << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
      << ", \"compiler\": \"" << PERFBENCH_COMPILER << "\", \"env\": {";
  bool first = true;
  for (const auto& [name, value] : RudolfEnvironment()) {
    out << (first ? "" : ", ") << "\"" << name << "\": \"";
    for (char c : value) {
      if (c == '"' || c == '\\') out << '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out << c;
    }
    out << "\"";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
