#include "stats.h"

#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

void Mix(uint64_t* h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

void MixString(uint64_t* h, const std::string& s) {
  uint64_t n = s.size();
  Mix(h, &n, sizeof(n));
  Mix(h, s.data(), s.size());
}

std::string Hex(uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double SmoothQuantile(std::vector<double> values, double q) {
  if (values.size() < 200) return Quantile(std::move(values), q);
  std::sort(values.begin(), values.end());
  const double last = static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(std::max(0.0, q - 0.005) * last));
  size_t hi = static_cast<size_t>(std::ceil(std::min(1.0, q + 0.005) * last));
  double sum = 0.0;
  for (size_t i = lo; i <= hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo + 1);
}

double MedianOfWindows(const std::vector<double>& values, size_t window, double q) {
  if (window == 0 || values.size() <= window) return SmoothQuantile(values, q);
  std::vector<double> per_window;
  for (size_t at = 0; at + window <= values.size(); at += window) {
    per_window.push_back(SmoothQuantile(
        std::vector<double>(values.begin() + static_cast<ptrdiff_t>(at),
                            values.begin() + static_cast<ptrdiff_t>(at + window)),
        q));
  }
  return Median(per_window);
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double mb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    long kb = 0;
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
      mb = static_cast<double>(kb) / 1024.0;
    }
  }
  std::fclose(f);
  return mb;
}

void ReleaseFreedMemory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::string Digest(const rudolf::Schema& schema, const rudolf::RuleSet& rules,
                   const rudolf::EditLog& log) {
  uint64_t h = kFnvOffset;
  MixString(&h, rules.ToString(schema));
  for (size_t i = 0; i < log.size(); ++i) {
    const rudolf::Edit& e = log.edit(i);
    int64_t fields[] = {static_cast<int64_t>(e.kind),
                        static_cast<int64_t>(e.source),
                        static_cast<int64_t>(e.rule),
                        static_cast<int64_t>(e.attribute),
                        static_cast<int64_t>(e.group)};
    Mix(&h, fields, sizeof(fields));
    Mix(&h, &e.cost, sizeof(e.cost));
    MixString(&h, e.note);
  }
  return Hex(h);
}

std::string CombineDigests(const std::vector<std::string>& digests) {
  uint64_t h = kFnvOffset;
  for (const std::string& d : digests) MixString(&h, d);
  return Hex(h);
}

}  // namespace perfbench
