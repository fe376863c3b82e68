// Small numeric and process helpers shared by the benchmark workloads:
// quantiles over samples, process resource readings, and the digest that
// fingerprints a workload's final rules and edit log.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "relation/schema.h"
#include "rules/edit.h"
#include "rules/rule_set.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Quantile `q` in [0, 1] of `values` with linear interpolation between
/// order statistics (the numpy default). 0 for an empty input.
double Quantile(std::vector<double> values, double q);

/// Quantile `q` of a large sample of clock readings, estimated as the mean
/// of the order statistics within half a percentile point of q. Single
/// readings are quantized to the clock's nanosecond; the mean is not, so
/// the estimate keeps the digits that distinguish one run from the next.
/// Falls back to Quantile for fewer than 200 values.
double SmoothQuantile(std::vector<double> values, double q);

/// Median over consecutive windows of `window` values of each window's
/// SmoothQuantile `q` (a trailing partial window is dropped unless it is
/// the only one).
double MedianOfWindows(const std::vector<double>& values, size_t window, double q);

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Peak resident set of this process (VmHWM), in MiB; 0 when unreadable.
double PeakRssMb();

/// Returns memory the allocator holds free to the system (glibc); a no-op
/// elsewhere.
void ReleaseFreedMemory();

/// User plus system CPU time of this process so far, in seconds.
double ProcessCpuSeconds();

/// Hex FNV-1a fingerprint of a rule set's text and every field of its edit
/// log. Equal digests mean equal rules and equal edit histories.
std::string Digest(const rudolf::Schema& schema, const rudolf::RuleSet& rules,
                   const rudolf::EditLog& log);

/// Folds several digests into one (order matters).
std::string CombineDigests(const std::vector<std::string>& digests);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
