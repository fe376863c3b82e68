// Scoped-span tracing with Chrome trace_event export.
//
//   RUDOLF_SPAN("eval.rule");   // RAII: records [ctor, dtor) as one span
//   RUDOLF_TIMED_SCOPE("tracker.build");  // span + "tracker.build.seconds"
//
// When tracing is disabled (the default) a span is one relaxed atomic load
// and a branch — no clock read, no allocation — so instrumented hot paths
// run at their uninstrumented throughput. When enabled (`RUDOLF_TRACE=<path>`
// in the environment, or Tracer::Start in code), spans record begin/end into
// fixed-capacity per-thread ring buffers (oldest events overwritten on
// overflow) and the collected trace is written as Chrome `trace_event` JSON
// — loadable in chrome://tracing and Perfetto — at process exit (env path)
// or via Tracer::WriteTo.
//
// Each buffer is guarded by its own mutex, taken only by its owning thread
// per event and by the flusher during WriteTo/Clear — uncontended in steady
// state and TSan-clean by construction. Span names must be string literals
// (the tracer stores the pointer).

#ifndef RUDOLF_OBS_TRACE_H_
#define RUDOLF_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace rudolf {
namespace obs {

namespace internal {
// The one-word gate every RUDOLF_SPAN reads. Defined in trace.cc; flipped
// only by Tracer::Start/Stop (and the RUDOLF_TRACE env check at load time).
extern std::atomic<bool> g_trace_enabled;
}  // namespace internal

/// True when spans are being recorded. One relaxed load.
inline bool TracingEnabled() {
  return internal::g_trace_enabled.load(std::memory_order_relaxed);
}

/// \brief Collects completed spans from all threads and exports Chrome
/// trace JSON.
class Tracer {
 public:
  /// Events kept per thread; the ring overwrites the oldest beyond this.
  static constexpr size_t kRingCapacity = size_t{1} << 16;

  static Tracer& Get();

  /// Enables span recording. `path`, if non-empty, is where the trace is
  /// written at process exit (the RUDOLF_TRACE behaviour); tests pass ""
  /// and call WriteTo explicitly.
  void Start(const std::string& path = "");

  /// Disables span recording (buffered events are kept until Clear).
  void Stop();

  /// Writes every buffered span (all threads, exited ones included) as a
  /// Chrome trace_event JSON document. False on I/O failure.
  bool WriteTo(const std::string& path);

  /// Drops all buffered events (counts reset; threads stay registered).
  void Clear();

  /// Buffered events across all threads (flush-time consistent view).
  size_t EventCount();

  /// Events lost to ring overwrites across all threads.
  size_t DroppedCount();

  /// Nesting depth of live spans on the calling thread (tests).
  static int CurrentDepth();

 private:
  friend class ScopedSpan;

  struct Event {
    const char* name;   // string literal
    uint64_t ts_ns;     // begin, relative to the tracer epoch
    uint64_t dur_ns;
    int depth;          // nesting depth at begin (0 = outermost)
  };

  struct ThreadBuffer {
    std::mutex mu;
    uint32_t tid = 0;
    size_t next = 0;     // ring write cursor
    size_t dropped = 0;  // events overwritten
    std::vector<Event> events;  // grows to kRingCapacity, then wraps
  };

  Tracer();

  // The calling thread's buffer, registered on first use. The registry
  // holds shared_ptrs so buffers of exited threads survive until flush.
  ThreadBuffer* LocalBuffer();

  void Append(const char* name, uint64_t ts_ns, uint64_t dur_ns, int depth);

  uint64_t NowNanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  std::chrono::steady_clock::time_point epoch_;
  std::mutex registry_mu_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::string exit_path_;
  std::atomic<bool> atexit_registered_{false};
};

/// \brief RAII span: captures the begin timestamp if tracing is enabled at
/// construction and records one complete event at destruction.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;  // null when tracing was disabled at construction
  uint64_t begin_ns_ = 0;
  int depth_ = 0;
};

#ifndef RUDOLF_OBS_CONCAT
#define RUDOLF_OBS_CONCAT_INNER(a, b) a##b
#define RUDOLF_OBS_CONCAT(a, b) RUDOLF_OBS_CONCAT_INNER(a, b)
#endif

/// Traces the enclosing scope as a span named `name` (a string literal).
#define RUDOLF_SPAN(name) \
  ::rudolf::obs::ScopedSpan RUDOLF_OBS_CONCAT(rudolf_obs_span_, __LINE__)(name)

/// Times the enclosing scope both ways: as the span `name` and into the
/// histogram `name ".seconds"` (`name` a string literal). The one idiom for a
/// timed scope; per-row or per-candidate scopes keep a bare span or
/// histogram.
#define RUDOLF_TIMED_SCOPE(name) \
  RUDOLF_SPAN(name);             \
  RUDOLF_SCOPED_LATENCY(name ".seconds")

}  // namespace obs
}  // namespace rudolf

#endif  // RUDOLF_OBS_TRACE_H_
