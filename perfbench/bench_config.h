// Command line and effective configuration of a benchmark run.

#ifndef PERFBENCH_BENCH_CONFIG_H_
#define PERFBENCH_BENCH_CONFIG_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Parsed `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 0;
  bool trace = false;
};

/// Parses argv; on failure returns false with a message in `error`.
bool ParseArgs(int argc, char** argv, Args* args, std::string* error);

/// Every `RUDOLF_*` variable set in the environment, sorted by name.
std::vector<std::pair<std::string, std::string>> RudolfEnvironment();

/// The set `RUDOLF_*` variables that change the measured configuration
/// (thread count, index, SIMD tier, compression, pipeline and fleet sizing,
/// in-library tracing, the background metrics flight recorder). Library
/// parsing falls back to defaults silently on bad values, so a timed run
/// refuses to start while any of these is set.
std::vector<std::string> ConfigChangingVariables();

/// One-line JSON object stamping the effective configuration: seed, nproc,
/// scheduler width, SIMD tier, build type, compiler and every set
/// `RUDOLF_*` variable.
std::string ConfigStamp(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_CONFIG_H_
