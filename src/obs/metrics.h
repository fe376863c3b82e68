// Process-wide metrics registry: named lock-free counters and fixed-bucket
// latency histograms for the engine's hot paths (evaluator, indexes,
// trackers, proposal phases, scheduler, sessions).
//
// Design constraints, in order:
//   * near-zero overhead at the increment site — a counter increment is one
//     relaxed atomic add on a per-thread shard (no locks, no false sharing),
//     a histogram record is two relaxed adds plus a max-CAS;
//   * TSan-clean under concurrent increments from any number of threads;
//   * snapshot-able — Snapshot() returns a plain struct that can be diffed
//     against an earlier snapshot (per-round deltas) and serialized to JSON
//     for the BENCH_*.json sidecars and the RUDOLF_METRICS dump.
//
// Counters and histograms are registered on first use and never destroyed
// (their addresses are stable for the process lifetime), so call sites cache
// the pointer in a function-local static:
//
//   RUDOLF_COUNTER_INC("eval.rule.indexed");
//   RUDOLF_SCOPED_LATENCY("tracker.build.seconds");  // records on scope exit
//
// `RUDOLF_METRICS=<path>` writes the full registry snapshot as JSON at
// process exit (see MetricsRegistry::Default).

#ifndef RUDOLF_OBS_METRICS_H_
#define RUDOLF_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rudolf {
namespace obs {

/// Tenant id a labeled metric series belongs to. Mirrors rudolf::TenantId
/// (util/task_scheduler.h) without pulling the scheduler into every obs
/// client; 0 is the unlabeled/aggregate series.
using TenantLabel = uint32_t;

/// The tenant the calling thread is working for, per
/// TaskScheduler::CurrentTenant() — one TLS read. 0 outside any TenantScope
/// or tenant-tagged scheduler chunk.
TenantLabel CurrentTenantLabel();

/// \brief Monotonic counter, sharded per thread to keep hot increments
/// contention-free.
///
/// Each thread hashes to one of kShards cache-line-sized slots; Value() sums
/// them. All accesses are relaxed atomics: the counter promises eventual
/// consistency of the total, not ordering against other memory.
class Counter {
 public:
  static constexpr size_t kShards = 16;  // power of two

  void Inc(uint64_t n = 1) {
    shards_[ShardIndex()].value.fetch_add(n, std::memory_order_relaxed);
  }

  /// Sum over shards. Concurrent increments may or may not be included.
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) total += s.value.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };

  static size_t ShardIndex();

  std::array<Shard, kShards> shards_{};
};

/// \brief Signed level metric — a quantity that goes up *and* down, like
/// bytes currently held by the fleet's caches.
///
/// Counters are monotonic by contract (deltas between snapshots are
/// meaningful); a gauge reports its instantaneous value instead, so
/// DeltaSince passes gauges through unchanged. Relaxed atomics, same
/// eventual-consistency promise as Counter.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Fixed-bucket latency histogram over power-of-two microsecond
/// boundaries.
///
/// Bucket b counts samples in [2^b µs, 2^(b+1) µs) (bucket 0 additionally
/// absorbs sub-microsecond samples; the last bucket is unbounded above), so
/// 28 buckets cover 1 µs .. ~2.2 minutes with ≤ 2x relative error — plenty
/// for checking the paper's "at most one second" proposal-latency claim.
/// Records are relaxed atomics; totals are eventually consistent like
/// Counter's.
class Histogram {
 public:
  static constexpr size_t kBuckets = 28;

  /// Bucket index of a duration in seconds.
  static size_t BucketFor(double seconds);

  /// Inclusive upper bound of bucket `b`, in seconds (+inf for the last).
  static double BucketUpperBound(size_t b);

  void Record(double seconds);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double SumSeconds() const {
    return static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  }
  double MaxSeconds() const {
    return static_cast<double>(max_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  }

 private:
  friend class MetricsRegistry;

  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_nanos_{0};
  std::atomic<uint64_t> max_nanos_{0};
};

/// One counter's value at snapshot time. `tenant` != 0 marks a per-tenant
/// labeled series (rendered as `name{tenant="N"}`); the tenant-0 series of
/// the same name is the all-tenants aggregate.
struct CounterSample {
  std::string name;
  uint64_t value = 0;
  TenantLabel tenant = 0;
};

/// One gauge's value at snapshot time.
struct GaugeSample {
  std::string name;
  int64_t value = 0;
  TenantLabel tenant = 0;
};

/// One histogram's state at snapshot time.
struct HistogramSample {
  std::string name;
  uint64_t count = 0;
  double sum_seconds = 0.0;
  double max_seconds = 0.0;
  TenantLabel tenant = 0;
  std::array<uint64_t, Histogram::kBuckets> buckets{};

  /// Approximate quantile (0..1): the upper bound of the bucket holding the
  /// q-th sample. ≤ 2x the true value by bucket construction; 0 when empty.
  double Quantile(double q) const;

  /// Quantile estimate by linear interpolation inside the holding bucket
  /// (the Prometheus histogram_quantile estimator), clamped to the observed
  /// max. Strictly tighter than Quantile()'s bucket upper bound; 0 when
  /// empty. The last (unbounded) bucket reports the observed max.
  double ValueAtQuantile(double q) const;
};

/// \brief Point-in-time copy of every registered metric, diffable and
/// JSON-serializable.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;      // sorted by name
  std::vector<GaugeSample> gauges;          // sorted by name
  std::vector<HistogramSample> histograms;  // sorted by name

  /// This snapshot minus `earlier` (matched by name *and* tenant label;
  /// metrics absent from `earlier` keep their full value; zero-delta
  /// counters are dropped). Histogram max is *not* differenced — it reports
  /// the max since registration, the honest reading for a windowed delta.
  /// Gauges are levels, not rates: they pass through with their current
  /// value.
  MetricsSnapshot DeltaSince(const MetricsSnapshot& earlier) const;

  /// Lookup by name and tenant label; the default finds the unlabeled
  /// (aggregate) series.
  const CounterSample* FindCounter(const std::string& name,
                                   TenantLabel tenant = 0) const;
  const GaugeSample* FindGauge(const std::string& name,
                               TenantLabel tenant = 0) const;
  const HistogramSample* FindHistogram(const std::string& name,
                                       TenantLabel tenant = 0) const;

  /// JSON object `{"counters": {...}, "histograms": {...}}`. `indent` is the
  /// number of spaces prefixed to every inner line, so the object can be
  /// embedded in an outer document (BenchJson) at any depth.
  std::string ToJson(int indent = 0) const;
};

/// \brief Name → metric registry. Lookups lock; the returned pointers are
/// stable for the process lifetime, so hot call sites resolve once into a
/// function-local static (RUDOLF_COUNTER_INC / RUDOLF_SCOPED_LATENCY).
class MetricsRegistry {
 public:
  /// The process-wide registry. On first use, if `RUDOLF_METRICS=<path>` is
  /// set, registers an atexit hook writing the final Snapshot() JSON there.
  static MetricsRegistry& Default();

  /// Private registries are for exporters' and tests' isolated worlds; the
  /// macros and every subsystem use Default().
  MetricsRegistry() = default;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Per-tenant labeled views: the `name{tenant="t"}` series, registered on
  /// first use like the unlabeled metrics (stable pointers). `tenant` 0
  /// degrades to the unlabeled series, so call sites need no branch. These
  /// lookups lock; labeled sites are round/batch-grained, never per-row.
  Counter* GetTenantCounter(const std::string& name, TenantLabel tenant);
  Gauge* GetTenantGauge(const std::string& name, TenantLabel tenant);
  Histogram* GetTenantHistogram(const std::string& name, TenantLabel tenant);

  MetricsSnapshot Snapshot() const;

  /// Writes Snapshot().ToJson() to `path`; false (with a stderr warning) on
  /// I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  static HistogramSample SampleOf(const std::string& name, TenantLabel tenant,
                                  const Histogram& hist);

  mutable std::mutex mu_;
  // std::map: stable addresses via unique_ptr and name-sorted snapshots.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  // Labeled series, keyed (name, tenant); tenant is never 0 here.
  std::map<std::pair<std::string, TenantLabel>, std::unique_ptr<Counter>>
      tenant_counters_;
  std::map<std::pair<std::string, TenantLabel>, std::unique_ptr<Gauge>>
      tenant_gauges_;
  std::map<std::pair<std::string, TenantLabel>, std::unique_ptr<Histogram>>
      tenant_histograms_;
};

/// \brief Records the lifetime of a scope into a Histogram (RAII).
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram* hist)
      : hist_(hist), start_(std::chrono::steady_clock::now()) {}
  ~ScopedLatency() {
    hist_->Record(std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count());
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

/// \brief ScopedLatency that additionally records into the calling tenant's
/// labeled series (`name{tenant="t"}`) when the scope runs under a
/// TenantScope / tenant-tagged scheduler chunk.
///
/// The tenant is sampled at construction (one TLS read), so the label is
/// the tenant that *started* the scope even if the body migrates across
/// nested episodes. The aggregate (unlabeled) histogram is always recorded.
class ScopedTenantLatency {
 public:
  ScopedTenantLatency(Histogram* aggregate, const char* name)
      : aggregate_(aggregate),
        name_(name),
        tenant_(CurrentTenantLabel()),
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedTenantLatency();
  ScopedTenantLatency(const ScopedTenantLatency&) = delete;
  ScopedTenantLatency& operator=(const ScopedTenantLatency&) = delete;

 private:
  Histogram* aggregate_;
  const char* name_;
  TenantLabel tenant_;
  std::chrono::steady_clock::time_point start_;
};

#ifndef RUDOLF_OBS_CONCAT
#define RUDOLF_OBS_CONCAT_INNER(a, b) a##b
#define RUDOLF_OBS_CONCAT(a, b) RUDOLF_OBS_CONCAT_INNER(a, b)
#endif

/// Bumps the named process-wide counter by 1 (resolving it once per call
/// site).
#define RUDOLF_COUNTER_INC(name) RUDOLF_COUNTER_ADD(name, 1)

/// Bumps the named process-wide counter by `n`.
#define RUDOLF_COUNTER_ADD(name, n)                                      \
  do {                                                                   \
    static ::rudolf::obs::Counter* rudolf_obs_counter =                  \
        ::rudolf::obs::MetricsRegistry::Default().GetCounter(name);      \
    rudolf_obs_counter->Inc(n);                                          \
  } while (0)

/// Records the enclosing scope's wall time into the named histogram.
#define RUDOLF_SCOPED_LATENCY(name)                                     \
  static ::rudolf::obs::Histogram* RUDOLF_OBS_CONCAT(                   \
      rudolf_obs_hist_, __LINE__) =                                     \
      ::rudolf::obs::MetricsRegistry::Default().GetHistogram(name);     \
  ::rudolf::obs::ScopedLatency RUDOLF_OBS_CONCAT(rudolf_obs_lat_,       \
                                                 __LINE__)(             \
      RUDOLF_OBS_CONCAT(rudolf_obs_hist_, __LINE__))

// --- Tenant-labeled variants. The unlabeled macros above are untouched —
// their cost (one static-cached pointer + relaxed add) is the hot-path
// contract. The tenant variants add one TLS read and a branch; only when a
// tenant is actually in scope do they pay a registry lookup for the labeled
// series. Use them at round/batch granularity (fleet rounds, ingest
// batches, evictions), never inside per-row loops.

/// Bumps the named counter by 1, plus the calling tenant's labeled series.
#define RUDOLF_TENANT_COUNTER_INC(name) RUDOLF_TENANT_COUNTER_ADD(name, 1)

/// Bumps the named counter by `n`, plus the calling tenant's labeled series.
#define RUDOLF_TENANT_COUNTER_ADD(name, n)                               \
  do {                                                                   \
    RUDOLF_COUNTER_ADD(name, n);                                         \
    ::rudolf::obs::TenantLabel rudolf_obs_tenant =                       \
        ::rudolf::obs::CurrentTenantLabel();                             \
    if (rudolf_obs_tenant != 0) {                                        \
      ::rudolf::obs::MetricsRegistry::Default()                          \
          .GetTenantCounter(name, rudolf_obs_tenant)                     \
          ->Inc(n);                                                      \
    }                                                                    \
  } while (0)

/// Records the enclosing scope's wall time into the named histogram and,
/// when a tenant is in scope at entry, into its labeled series.
#define RUDOLF_TENANT_SCOPED_LATENCY(name)                               \
  static ::rudolf::obs::Histogram* RUDOLF_OBS_CONCAT(                    \
      rudolf_obs_thist_, __LINE__) =                                     \
      ::rudolf::obs::MetricsRegistry::Default().GetHistogram(name);      \
  ::rudolf::obs::ScopedTenantLatency RUDOLF_OBS_CONCAT(rudolf_obs_tlat_, \
                                                       __LINE__)(        \
      RUDOLF_OBS_CONCAT(rudolf_obs_thist_, __LINE__), name)

}  // namespace obs
}  // namespace rudolf

#endif  // RUDOLF_OBS_METRICS_H_
