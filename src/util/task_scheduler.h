// The task scheduler shared by every concurrent session in the process: the
// one parallel substrate of the engine.
//
// Any number of threads (tenant sessions, benchmarks, nested bodies) may
// submit ParallelFor episodes concurrently. A submitter lists its episode
// as open, claims chunks itself, and unlists it once the chunks run dry;
// idle workers join open episodes from that one list and claim chunks
// beside the submitter.
//
// Determinism contract: an episode's chunk boundaries are pure arithmetic
// over (begin, end, grain, num_threads()), never a function of runtime
// load, and every consumer writes state indexed by its own chunk — so
// results are bit-identical to the serial execution regardless of which
// thread runs which chunk, at every thread count, for any interleaving
// of concurrent episodes.
//
// Fairness contract: episodes carry the tenant id in scope at submission
// (TenantScope). An idle worker joins external episodes (submitted from
// threads that are not this scheduler's workers) round-robin *across
// tenants*, and prefers any of them to helping a nested episode that a
// worker submitted — so one tenant scanning 10M rows cannot starve 99
// small tenants' rounds queued behind it.

#ifndef RUDOLF_UTIL_TASK_SCHEDULER_H_
#define RUDOLF_UTIL_TASK_SCHEDULER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rudolf {

/// Resolves a requested worker count against the environment:
///   * `RUDOLF_THREADS=<n>` (n >= 1) overrides everything — the switch for
///     running an unmodified binary (or the whole test suite) parallel;
///   * `requested == 0` means "all hardware threads";
///   * `requested < 0` degrades to 1 (serial);
///   * otherwise the request stands.
int ResolveNumThreads(int requested);

/// Tenant id attached to scheduler work for fair sharing; 0 is the
/// "untagged" tenant every episode belongs to unless a TenantScope says
/// otherwise.
using TenantId = uint32_t;

namespace sched_internal {
struct Episode;
}  // namespace sched_internal

/// \brief Shared scheduler for ParallelFor episodes.
///
/// Owns `num_threads - 1` worker threads; the submitter of every episode
/// participates as the final worker, claiming chunks alongside helpers. A
/// TaskScheduler(1) owns no threads and runs everything inline.
///
/// ParallelFor is fully reentrant: bodies may issue nested episodes (on the
/// same scheduler) and concurrent external threads may issue episodes at
/// the same time — no gate, no exclusivity, no gang.
class TaskScheduler {
 public:
  /// Spawns `num_threads - 1` workers (clamped below at 1 total).
  explicit TaskScheduler(int num_threads);
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// Total parallelism including submitters.
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// \brief Runs `body(lo, hi)` over a deterministic partition of
  /// [begin, end).
  ///
  /// Chunk boundaries are always `begin + k * grain` (the final chunk may be
  /// short) and the chunk count depends only on the range, the grain and
  /// num_threads() — so with `begin` and `grain` multiples of 64 every chunk
  /// covers whole Bitset words and concurrent bodies never write the same
  /// word, whatever worker runs them.
  ///
  /// The calling thread claims chunks itself and blocks until every chunk
  /// has finished (also the ones claimed by helpers). Bodies may call
  /// ParallelFor again — nested episodes run on the same scheduler, and
  /// idle workers help them. If bodies throw, every chunk still runs and
  /// the first exception is rethrown on the calling thread.
  ///
  /// `tag` names the logical issuer (usually `this` of the calling object):
  /// while a thread executes one of the episode's chunks,
  /// InRegionTagged(tag) is true on it, which is how consumers with
  /// single-writer caches (RuleEvaluator) detect "I'm inside my own
  /// parallel region" now that nesting no longer throws.
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t, size_t)>& body,
                   const void* tag = nullptr);

  /// True when the calling thread is inside a chunk of an episode tagged
  /// `tag` (at any nesting depth, on any scheduler): the "am I nested in
  /// *my own* parallel region?" test.
  static bool InRegionTagged(const void* tag);

  /// The tenant id new episodes submitted from this thread are tagged with:
  /// the innermost running chunk's tenant, else the innermost TenantScope's,
  /// else 0.
  static TenantId CurrentTenant();

  /// \brief Process-wide scheduler, created on first use and never
  /// destroyed.
  ///
  /// Sized once, at first call, to max(hint, all hardware threads), with
  /// `RUDOLF_THREADS` overriding everything (see ResolveNumThreads). Later
  /// calls return the same instance whatever their hint — one box, one
  /// worker fleet — logging at Info when a larger hint arrives too late to
  /// matter.
  static TaskScheduler* Shared(int hint = 0);

 private:
  void WorkerLoop();
  // Under mu_: the open episode an idle worker should join next (see the
  // fairness contract above), or null when no open episode has an
  // unclaimed chunk.
  sched_internal::Episode* PickLocked();
  // Claims and runs chunks until the episode's cursor is exhausted.
  void RunChunks(sched_internal::Episode* episode);
  // Helper-side checkout: decrements participants and wakes the submitter.
  void Leave(sched_internal::Episode* episode);

  // Guards open_, rr_after_ and shutdown_. A leaf lock: it is never held
  // while a body runs or while anyone waits on an episode.
  std::mutex mu_;
  std::condition_variable work_cv_;  // idle workers park here
  // Episodes whose submitter has not yet retired them, oldest first.
  std::vector<sched_internal::Episode*> open_;
  TenantId rr_after_ = 0;  // serve the next tenant strictly after this
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

/// \brief RAII tenant tag: episodes submitted while in scope (on this
/// thread) belong to `tenant` for fair-share purposes.
class TenantScope {
 public:
  explicit TenantScope(TenantId tenant);
  ~TenantScope();

  TenantScope(const TenantScope&) = delete;
  TenantScope& operator=(const TenantScope&) = delete;

 private:
  TenantId saved_;
};

}  // namespace rudolf

#endif  // RUDOLF_UTIL_TASK_SCHEDULER_H_
