// A work-stealing task scheduler shared by every concurrent session in the
// process: the one parallel substrate of the engine.
//
// Any number of threads (tenant sessions, benchmarks, nested bodies) may
// submit ParallelFor episodes concurrently; workers pull work from wherever
// it is — their own deque first, then the tenant-fair injection registry,
// then by stealing from sibling deques.
//
// Determinism contract: an episode's chunk boundaries are pure arithmetic
// over (begin, end, grain, num_threads()), never a function of runtime
// load, and every consumer writes state indexed by its own chunk — so
// results are bit-identical to the serial execution regardless of which
// worker steals which chunk, at every thread count, for any interleaving
// of concurrent episodes.
//
// Fairness contract: episodes carry the tenant id in scope at submission
// (TenantScope). Idle workers drain the injection registry round-robin
// *across tenants*, and prefer fresh registry work over helping another
// worker's nested episode — so one tenant scanning 10M rows cannot starve
// 99 small tenants' rounds queued behind it.

#ifndef RUDOLF_UTIL_TASK_SCHEDULER_H_
#define RUDOLF_UTIL_TASK_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
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

/// \brief Chase-Lev-style work-stealing deque of ticket words.
///
/// The owner pushes and pops at the bottom (LIFO); thieves steal at the top
/// (FIFO). Cells are atomics (the Lê-Pop-Cohen-Nardelli C11 formulation),
/// so the classic racy-buffer-read is expressed as relaxed atomic accesses
/// and the structure is TSan-clean. Tickets are opaque non-zero words; 0
/// means empty/lost-race. Tickets may go stale (their episode already
/// drained) — consumers validate against the slot table, so a stale steal
/// is a cheap no-op rather than a correctness hazard.
class WorkStealingDeque {
 public:
  WorkStealingDeque();
  ~WorkStealingDeque() = default;

  WorkStealingDeque(const WorkStealingDeque&) = delete;
  WorkStealingDeque& operator=(const WorkStealingDeque&) = delete;

  /// Owner only.
  void PushBottom(uint64_t ticket);
  /// Owner only; 0 when empty.
  uint64_t PopBottom();
  /// Any thread; 0 when empty or when another thief won the race.
  uint64_t StealTop();

 private:
  struct Buffer {
    explicit Buffer(size_t capacity);
    size_t mask;
    std::unique_ptr<std::atomic<uint64_t>[]> cells;
  };

  void Grow(int64_t bottom, int64_t top);

  std::atomic<int64_t> top_{0};
  std::atomic<int64_t> bottom_{0};
  std::atomic<Buffer*> buffer_;
  // Buffers are grown, never shrunk; superseded buffers stay alive until
  // the deque dies so a thief holding a stale pointer reads valid memory.
  std::vector<std::unique_ptr<Buffer>> retired_;
};

}  // namespace sched_internal

/// \brief Shared work-stealing scheduler for ParallelFor episodes.
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
  /// has finished (also the ones stolen by helpers). Bodies may call
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
  /// worker fleet — logging a warning when a larger hint arrives too late
  /// to matter.
  static TaskScheduler* Shared(int hint = 0);

 private:
  friend struct sched_internal::Episode;

  struct Slot;

  void WorkerLoop(int worker_index);
  // Publishes a ticket where helpers can find it: the caller's own deque
  // when on a worker, and/or the tenant bucket of the injection registry.
  void Publish(uint64_t ticket, TenantId tenant, bool to_registry);
  // Takes the next ticket from the injection registry, round-robin across
  // tenants; 0 when empty.
  uint64_t TakeFromRegistry();
  // Validates a ticket against the slot table; on success the episode's
  // participant count is already incremented (the caller must RunChunks +
  // Leave). Null for stale tickets.
  sched_internal::Episode* JoinTicket(uint64_t ticket);
  // Claims and runs chunks until the episode's cursor is exhausted.
  void RunChunks(sched_internal::Episode* episode);
  // Helper-side checkout: decrements participants and wakes the submitter.
  void Leave(sched_internal::Episode* episode);
  // Wakes idle workers (all of them; episodes are coarse enough that
  // precision wake counting is not worth the bookkeeping).
  void WakeWorkers();

  // --- slot table: tickets → live episodes, stale-safe. -------------------
  static constexpr size_t kSlots = 512;
  struct SlotTable;
  uint64_t OpenSlot(sched_internal::Episode* episode);
  void CloseSlot(uint64_t ticket);

  std::unique_ptr<SlotTable> slots_;

  // --- per-worker deques. --------------------------------------------------
  std::vector<std::unique_ptr<sched_internal::WorkStealingDeque>> deques_;

  // --- tenant-fair injection registry. -------------------------------------
  std::mutex registry_mu_;
  std::map<TenantId, std::deque<uint64_t>> registry_;
  TenantId registry_rr_after_ = 0;  // serve the next tenant strictly after this

  // --- worker lifecycle. ---------------------------------------------------
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  uint64_t wake_epoch_ = 0;
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
