// The repository benchmark's entry point.
//
//   perfbench --workload <protocol_1m|stream_serve|fleet_64> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Prints the checks, the effective configuration, the output digest and
// every metric with its unit, then, as the last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
// (--trace 0) or the per-layer metrics of a traced pass (--trace 1).

#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "bench_config.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  bool known = false;
  for (const std::string& name : WorkloadNames()) known = known || name == args.workload;
  if (!known) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::vector<std::string> refused = ConfigChangingVariables();
  if (!refused.empty()) {
    std::string names;
    for (const std::string& n : refused) names += " " + n;
    std::fprintf(stderr,
                 "perfbench: refusing a timed run while these variables change "
                 "the measured configuration:%s\n",
                 names.c_str());
    return 2;
  }

  WorkloadResult result;
  try {
    result = RunWorkload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }

  for (const std::string& line : result.report) std::printf("%s\n", line.c_str());
  std::printf("[config] %s\n", ConfigStamp(args).c_str());
  std::printf("[digest] %s seed %llu: %s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), result.digest.c_str());
  const std::vector<Metric>& metrics = args.trace ? result.layers : result.end_to_end;
  for (const Metric& m : result.end_to_end) {
    std::printf("[end-to-end] %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : result.reported) {
    std::printf("[reported]   %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : result.layers) {
    std::printf("[layer] %-28s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  bool finite = true;
  std::string json = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = metrics[i].value;
    if (!std::isfinite(v)) {
      finite = false;
      v = 0.0;
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i > 0 ? ", " : "", metrics[i].name.c_str(), v,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}";
  bool correct = result.failed == 0 && finite && !metrics.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), json.c_str());
  std::fflush(stdout);
  return 0;
}
