#include "util/task_scheduler.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace rudolf {

int ResolveNumThreads(int requested) {
  if (std::optional<int64_t> v = IntFromEnv("RUDOLF_THREADS", 1)) {
    return static_cast<int>(std::min<int64_t>(*v, 1024));
  }
  if (requested == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }
  return std::max(requested, 1);
}

namespace sched_internal {

// Innermost chunk a thread is executing (episode tag + tenant), linked
// through parents so nested regions of *different* owners are all visible.
struct RegionFrame {
  const void* tag;
  TenantId tenant;
  const RegionFrame* parent;
};

// One ParallelFor invocation, stack-allocated on the submitter. A helper
// joins it (participants + 1) only under the scheduler's mu_ while it is
// listed in open_, and the submitter unlists it under mu_ before it waits
// for participants == 0 — so no helper joins after that wait begins, the
// wait covers every helper that joined before, and the Episode outlives
// them all.
struct Episode {
  size_t begin = 0;
  size_t end = 0;
  size_t chunk = 0;  // row width of every chunk but the last
  size_t num_chunks = 0;
  const std::function<void(size_t, size_t)>* body = nullptr;
  const void* tag = nullptr;
  TenantId tenant = 0;
  // Submitted from a thread that is not one of this scheduler's workers;
  // idle workers serve these before any nested episode.
  bool external = false;
  // The submitter's region chain: every chunk runs nested in it, on
  // whichever thread. The frames outlive the episode (the submitter blocks
  // inside them until every helper has left).
  const RegionFrame* enclosing = nullptr;

  std::atomic<size_t> next_chunk{0};   // claim cursor
  std::atomic<size_t> completed{0};    // chunks fully executed
  std::atomic<int> participants{0};    // helpers inside RunChunks/Leave
  std::mutex done_mu;
  std::condition_variable done_cv;
  std::mutex error_mu;
  std::exception_ptr error;
};

}  // namespace sched_internal

namespace {

using sched_internal::Episode;

// A few chunks per thread so fast workers absorb skew, boundaries pure
// arithmetic so outputs are schedule-independent.
constexpr size_t kChunksPerThread = 4;

using sched_internal::RegionFrame;

thread_local const RegionFrame* tls_region = nullptr;
// Tenant set by TenantScope outside any running chunk.
thread_local TenantId tls_scope_tenant = 0;
// Set for the lifetime of a WorkerLoop so workers recognise their own
// scheduler when submitting nested episodes.
thread_local TaskScheduler* tls_worker_scheduler = nullptr;

}  // namespace

TaskScheduler::TaskScheduler(int num_threads) {
  int spawn = std::max(num_threads, 1) - 1;
  workers_.reserve(static_cast<size_t>(spawn));
  for (int i = 0; i < spawn; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  // Effective width (submitter + workers) — /healthz reports this so a
  // scrape can tell a narrow container from a misconfigured pool.
  obs::MetricsRegistry::Default()
      .GetGauge("scheduler.width")
      ->Set(spawn + 1);
}

TaskScheduler::~TaskScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void TaskScheduler::RunChunks(Episode* episode) {
  // Helpers are idle workers (empty chain), so nesting under the
  // submitter's chain loses nothing of their own.
  RegionFrame frame{episode->tag, episode->tenant, episode->enclosing};
  const RegionFrame* saved = tls_region;
  tls_region = &frame;
  for (;;) {
    size_t c = episode->next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= episode->num_chunks) break;
    size_t lo = episode->begin + c * episode->chunk;
    size_t hi = std::min(episode->end, lo + episode->chunk);
    try {
      (*episode->body)(lo, hi);
    } catch (...) {
      std::lock_guard<std::mutex> g(episode->error_mu);
      if (!episode->error) episode->error = std::current_exception();
    }
    if (episode->completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        episode->num_chunks) {
      std::lock_guard<std::mutex> g(episode->done_mu);
      episode->done_cv.notify_all();
    }
  }
  tls_region = saved;
}

void TaskScheduler::Leave(Episode* episode) {
  // Under done_mu so the submitter's predicate re-check cannot miss the
  // final decrement.
  std::lock_guard<std::mutex> g(episode->done_mu);
  episode->participants.fetch_sub(1, std::memory_order_acq_rel);
  episode->done_cv.notify_all();
}

Episode* TaskScheduler::PickLocked() {
  // External episodes first, round-robin across tenants: the oldest episode
  // of the first tenant strictly after the last one served, wrapping — a
  // huge tenant's backlog cannot shadow the others' rounds. Otherwise the
  // oldest nested episode. open_ is oldest first, so the strict `<` keeps
  // the oldest of a tenant's episodes.
  Episode* after = nullptr;  // lowest tenant > rr_after_
  Episode* wrap = nullptr;   // lowest tenant overall
  Episode* nested = nullptr;
  for (Episode* e : open_) {
    if (e->next_chunk.load(std::memory_order_relaxed) >= e->num_chunks) {
      continue;  // nothing left to claim
    }
    if (!e->external) {
      if (nested == nullptr) nested = e;
      continue;
    }
    if (wrap == nullptr || e->tenant < wrap->tenant) wrap = e;
    if (e->tenant > rr_after_ &&
        (after == nullptr || e->tenant < after->tenant)) {
      after = e;
    }
  }
  Episode* pick = after != nullptr ? after : wrap;
  if (pick == nullptr) return nested;
  rr_after_ = pick->tenant;
  return pick;
}

void TaskScheduler::WorkerLoop() {
  tls_worker_scheduler = this;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Episode* episode = nullptr;
    work_cv_.wait(lock, [&] {
      return shutdown_ || (episode = PickLocked()) != nullptr;
    });
    if (shutdown_) return;
    // Joined under mu_ while the episode is listed, so its submitter's wait
    // for participants == 0 counts this helper (see Episode).
    episode->participants.fetch_add(1, std::memory_order_acq_rel);
    lock.unlock();
    // Counts helper joins; the name is the one perfbench reads.
    RUDOLF_COUNTER_INC("scheduler.steals");
    RunChunks(episode);
    Leave(episode);
    lock.lock();
  }
}

void TaskScheduler::ParallelFor(
    size_t begin, size_t end, size_t grain,
    const std::function<void(size_t, size_t)>& body, const void* tag) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const size_t n = end - begin;
  const size_t units = (n + grain - 1) / grain;
  const size_t width = static_cast<size_t>(num_threads());
  if (workers_.empty() || units <= 1) {
    RUDOLF_COUNTER_INC("scheduler.inline");
    body(begin, end);
    return;
  }

  RUDOLF_SPAN("scheduler.episode");
  const size_t units_per_chunk =
      std::max<size_t>(1, units / (width * kChunksPerThread));
  const size_t chunk = units_per_chunk * grain;
  const size_t num_chunks = (n + chunk - 1) / chunk;
  RUDOLF_COUNTER_INC("scheduler.episodes");
  RUDOLF_COUNTER_ADD("scheduler.chunks", num_chunks);
  if (tls_region != nullptr) RUDOLF_COUNTER_INC("scheduler.episodes.nested");

  Episode episode;
  episode.begin = begin;
  episode.end = end;
  episode.chunk = chunk;
  episode.num_chunks = num_chunks;
  episode.body = &body;
  episode.tag = tag;
  episode.tenant = CurrentTenant();
  episode.enclosing = tls_region;
  episode.external = tls_worker_scheduler != this;

  {
    std::lock_guard<std::mutex> lock(mu_);
    open_.push_back(&episode);
  }
  work_cv_.notify_all();

  // The submitter is the episode's first worker: claim chunks until the
  // cursor runs dry, then unlist the episode (no helper joins after that)
  // and wait out the helpers that joined before.
  RunChunks(&episode);
  {
    std::lock_guard<std::mutex> lock(mu_);
    open_.erase(std::find(open_.begin(), open_.end(), &episode));
  }
  {
    std::unique_lock<std::mutex> lock(episode.done_mu);
    episode.done_cv.wait(lock, [&] {
      return episode.completed.load(std::memory_order_acquire) ==
                 episode.num_chunks &&
             episode.participants.load(std::memory_order_acquire) == 0;
    });
  }
  if (episode.error) std::rethrow_exception(episode.error);
}

bool TaskScheduler::InRegionTagged(const void* tag) {
  for (const RegionFrame* f = tls_region; f != nullptr; f = f->parent) {
    if (f->tag == tag) return true;
  }
  return false;
}

TenantId TaskScheduler::CurrentTenant() {
  return tls_region != nullptr ? tls_region->tenant : tls_scope_tenant;
}

TaskScheduler* TaskScheduler::Shared(int hint) {
  static std::mutex* mu = new std::mutex;
  // Leaked deliberately: the fleet's workers must survive static
  // destruction of arbitrary clients.
  static TaskScheduler* instance = nullptr;
  std::lock_guard<std::mutex> lock(*mu);
  if (instance == nullptr) {
    // RUDOLF_THREADS (via ResolveNumThreads) overrides both terms; without
    // it the scheduler takes the whole box or the hint, whichever is more.
    int width = std::max(ResolveNumThreads(hint), ResolveNumThreads(0));
    instance = new TaskScheduler(width);
  } else if (hint > instance->num_threads() &&
             ResolveNumThreads(hint) > instance->num_threads()) {
    // Info, not Warning: harmless (the caller still parallelizes, just at
    // the fleet's width) and common in test suites that sweep thread
    // counts.
    RUDOLF_LOG(Info) << "TaskScheduler::Shared(" << hint
                     << ") after the shared scheduler was already sized to "
                     << instance->num_threads()
                     << " threads; the hint is ignored";
  }
  return instance;
}

TenantScope::TenantScope(TenantId tenant) : saved_(tls_scope_tenant) {
  tls_scope_tenant = tenant;
}

TenantScope::~TenantScope() { tls_scope_tenant = saved_; }

}  // namespace rudolf
