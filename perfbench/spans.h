// The benchmark's own span recorder. Spans are taken only around the calls
// the benchmark makes into the library (Refine, the expert callbacks,
// EvaluateOnRange, Decide, Append, RefineAll, ...); nothing inside the
// library is instrumented. Recording is off unless a traced run enables it,
// and then every span keeps its name, thread, start, end and parent (the
// innermost span open on the same thread when it began). Spans stay in
// per-thread memory until the run ends.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One completed span. `parent` is 0 for a root span.
struct SpanEvent {
  const char* name = "";  ///< string literal
  uint64_t id = 0;
  uint64_t parent = 0;
  uint32_t thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-name totals over a set of spans.
struct LayerTotals {
  size_t count = 0;
  double inclusive_s = 0.0;  ///< sum of span durations
  double self_s = 0.0;       ///< durations minus time covered by children
};

/// Process-wide recorder; disabled by default.
class SpanRecorder {
 public:
  static SpanRecorder& Get();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Every span recorded so far, from all threads. Call while no span is
  /// being recorded (all recording threads joined or idle).
  std::vector<SpanEvent> Collect();

  /// Drops every recorded span.
  void Clear();

 private:
  friend class ScopedSpan;
  std::atomic<bool> enabled_{false};
};

/// RAII span: records [construction, destruction) when recording is on;
/// otherwise one relaxed load.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  bool active_ = false;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  int64_t start_ns_ = 0;
};

/// Self time of each event, in seconds, aligned with `events`: its duration
/// minus the union of the intervals its children on the same thread cover
/// (clipped to the parent's interval).
std::vector<double> SelfSeconds(const std::vector<SpanEvent>& events);

/// Count, inclusive and self seconds per span name.
std::map<std::string, LayerTotals> AggregateByName(
    const std::vector<SpanEvent>& events);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
