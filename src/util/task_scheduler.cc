#include "util/task_scheduler.h"

#include <algorithm>
#include <array>
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

// One ParallelFor invocation, stack-allocated on the submitter. Helpers
// reach it only through a validated slot-table ticket, and the submitter
// destroys it only after the slot is closed (no new joins) and every joined
// helper has checked out (participants == 0) — so the stack lifetime is
// safe despite stale tickets floating in deques.
struct Episode {
  size_t begin = 0;
  size_t end = 0;
  size_t chunk = 0;  // row width of every chunk but the last
  size_t num_chunks = 0;
  const std::function<void(size_t, size_t)>* body = nullptr;
  const void* tag = nullptr;
  TenantId tenant = 0;
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

WorkStealingDeque::Buffer::Buffer(size_t capacity)
    : mask(capacity - 1), cells(new std::atomic<uint64_t>[capacity]) {}

WorkStealingDeque::WorkStealingDeque() {
  auto buf = std::make_unique<Buffer>(64);
  buffer_.store(buf.get(), std::memory_order_relaxed);
  retired_.push_back(std::move(buf));
}

void WorkStealingDeque::Grow(int64_t bottom, int64_t top) {
  Buffer* old = buffer_.load(std::memory_order_relaxed);
  auto grown = std::make_unique<Buffer>((old->mask + 1) * 2);
  for (int64_t i = top; i < bottom; ++i) {
    grown->cells[i & grown->mask].store(
        old->cells[i & old->mask].load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  buffer_.store(grown.get(), std::memory_order_release);
  retired_.push_back(std::move(grown));
}

void WorkStealingDeque::PushBottom(uint64_t ticket) {
  int64_t b = bottom_.load(std::memory_order_relaxed);
  int64_t t = top_.load(std::memory_order_acquire);
  Buffer* buf = buffer_.load(std::memory_order_relaxed);
  if (b - t > static_cast<int64_t>(buf->mask)) {
    Grow(b, t);
    buf = buffer_.load(std::memory_order_relaxed);
  }
  buf->cells[b & buf->mask].store(ticket, std::memory_order_relaxed);
  // seq_cst rather than the textbook release fence: TSan models atomic
  // operations fully but standalone fences only partially, and episodes are
  // coarse enough that the stronger order costs nothing measurable.
  bottom_.store(b + 1, std::memory_order_seq_cst);
}

uint64_t WorkStealingDeque::PopBottom() {
  int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
  Buffer* buf = buffer_.load(std::memory_order_relaxed);
  bottom_.store(b, std::memory_order_seq_cst);
  int64_t t = top_.load(std::memory_order_seq_cst);
  if (t > b) {  // empty: undo the decrement
    bottom_.store(b + 1, std::memory_order_relaxed);
    return 0;
  }
  uint64_t ticket = buf->cells[b & buf->mask].load(std::memory_order_relaxed);
  if (t != b) return ticket;  // still >1 elements: no race possible
  // Final element: race the thieves for it through top.
  if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                    std::memory_order_relaxed)) {
    ticket = 0;  // a thief got there first
  }
  bottom_.store(b + 1, std::memory_order_relaxed);
  return ticket;
}

uint64_t WorkStealingDeque::StealTop() {
  int64_t t = top_.load(std::memory_order_seq_cst);
  int64_t b = bottom_.load(std::memory_order_seq_cst);
  if (t >= b) return 0;
  Buffer* buf = buffer_.load(std::memory_order_acquire);
  uint64_t ticket = buf->cells[t & buf->mask].load(std::memory_order_relaxed);
  if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                    std::memory_order_relaxed)) {
    return 0;  // lost the race to the owner or another thief
  }
  return ticket;
}

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
// scheduler (and their deque) when submitting nested episodes.
thread_local TaskScheduler* tls_worker_scheduler = nullptr;
thread_local int tls_worker_index = -1;

}  // namespace

// Fixed table mapping tickets to live episodes. A ticket embeds the slot's
// generation; once the submitter bumps the generation the ticket validates
// to nothing, which is what makes stale deque entries harmless.
struct TaskScheduler::SlotTable {
  struct Slot {
    std::mutex mu;
    uint64_t gen = 1;  // starts >0 so a valid ticket is never the 0 sentinel
    Episode* episode = nullptr;
  };
  std::array<Slot, kSlots> slots;
  std::mutex free_mu;
  std::vector<uint32_t> free_list;

  SlotTable() {
    free_list.reserve(kSlots);
    for (size_t i = 0; i < kSlots; ++i) {
      free_list.push_back(static_cast<uint32_t>(kSlots - 1 - i));
    }
  }
};

TaskScheduler::TaskScheduler(int num_threads)
    : slots_(std::make_unique<SlotTable>()) {
  int spawn = std::max(num_threads, 1) - 1;
  deques_.reserve(static_cast<size_t>(spawn));
  for (int i = 0; i < spawn; ++i) {
    deques_.push_back(std::make_unique<sched_internal::WorkStealingDeque>());
  }
  workers_.reserve(static_cast<size_t>(spawn));
  for (int i = 0; i < spawn; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  // Effective width (submitter + workers) — /healthz reports this so a
  // scrape can tell a narrow container from a misconfigured pool.
  obs::MetricsRegistry::Default()
      .GetGauge("scheduler.width")
      ->Set(spawn + 1);
}

TaskScheduler::~TaskScheduler() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    shutdown_ = true;
    ++wake_epoch_;
  }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

uint64_t TaskScheduler::OpenSlot(Episode* episode) {
  uint32_t index;
  {
    std::lock_guard<std::mutex> lock(slots_->free_mu);
    if (slots_->free_list.empty()) return 0;  // submitter runs solo
    index = slots_->free_list.back();
    slots_->free_list.pop_back();
  }
  SlotTable::Slot& slot = slots_->slots[index];
  std::lock_guard<std::mutex> lock(slot.mu);
  slot.episode = episode;
  return (slot.gen << 16) | index;
}

void TaskScheduler::CloseSlot(uint64_t ticket) {
  uint32_t index = static_cast<uint32_t>(ticket & 0xFFFF);
  SlotTable::Slot& slot = slots_->slots[index];
  {
    std::lock_guard<std::mutex> lock(slot.mu);
    ++slot.gen;  // every outstanding copy of the ticket is now stale
    slot.episode = nullptr;
  }
  std::lock_guard<std::mutex> lock(slots_->free_mu);
  slots_->free_list.push_back(index);
}

Episode* TaskScheduler::JoinTicket(uint64_t ticket) {
  uint32_t index = static_cast<uint32_t>(ticket & 0xFFFF);
  if (index >= kSlots) return nullptr;
  SlotTable::Slot& slot = slots_->slots[index];
  std::lock_guard<std::mutex> lock(slot.mu);
  if (slot.gen != (ticket >> 16) || slot.episode == nullptr) return nullptr;
  // Registered under the slot lock, so CloseSlot's caller can rely on
  // `participants` covering every helper that ever validated this ticket.
  slot.episode->participants.fetch_add(1, std::memory_order_acq_rel);
  return slot.episode;
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

void TaskScheduler::WakeWorkers() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    ++wake_epoch_;
  }
  wake_cv_.notify_all();
}

void TaskScheduler::Publish(uint64_t ticket, TenantId tenant,
                            bool to_registry) {
  if (!to_registry && tls_worker_scheduler == this && tls_worker_index >= 0) {
    deques_[static_cast<size_t>(tls_worker_index)]->PushBottom(ticket);
    return;
  }
  std::lock_guard<std::mutex> lock(registry_mu_);
  registry_[tenant].push_back(ticket);
}

uint64_t TaskScheduler::TakeFromRegistry() {
  std::lock_guard<std::mutex> lock(registry_mu_);
  if (registry_.empty()) return 0;
  // Round-robin across tenants: serve the first tenant strictly after the
  // last one served, wrapping — a huge tenant's backlog cannot shadow the
  // others' queued episodes.
  auto it = registry_.upper_bound(registry_rr_after_);
  if (it == registry_.end()) it = registry_.begin();
  uint64_t ticket = it->second.front();
  it->second.pop_front();
  registry_rr_after_ = it->first;
  if (it->second.empty()) registry_.erase(it);
  return ticket;
}

void TaskScheduler::WorkerLoop(int worker_index) {
  tls_worker_scheduler = this;
  tls_worker_index = worker_index;
  const size_t self = static_cast<size_t>(worker_index);
  for (;;) {
    uint64_t epoch;
    {
      std::lock_guard<std::mutex> lock(wake_mu_);
      if (shutdown_) return;
      epoch = wake_epoch_;
    }
    // Own deque (LIFO: finish what we started, cache-warm) → tenant-fair
    // registry (fresh top-level work beats helping a sibling's nested
    // episode) → steal.
    uint64_t ticket = deques_[self]->PopBottom();
    if (ticket == 0) {
      ticket = TakeFromRegistry();
      if (ticket != 0) RUDOLF_COUNTER_INC("scheduler.registry.claims");
    }
    if (ticket == 0) {
      for (size_t k = 1; k < deques_.size() && ticket == 0; ++k) {
        ticket = deques_[(self + k) % deques_.size()]->StealTop();
      }
      if (ticket != 0) RUDOLF_COUNTER_INC("scheduler.steals");
    }
    if (ticket != 0) {
      Episode* episode = JoinTicket(ticket);
      if (episode == nullptr) {
        RUDOLF_COUNTER_INC("scheduler.tickets.stale");
        continue;
      }
      // Re-advertise before diving in: if more chunks remain than we can
      // eat, another idle worker should be able to find the episode too.
      if (episode->next_chunk.load(std::memory_order_relaxed) + 1 <
          episode->num_chunks) {
        deques_[self]->PushBottom(ticket);
        WakeWorkers();
      }
      RunChunks(episode);
      Leave(episode);
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait(lock,
                  [&] { return shutdown_ || wake_epoch_ != epoch; });
    if (shutdown_) return;
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

  uint64_t ticket = OpenSlot(&episode);
  if (ticket != 0) {
    // A worker submitter advertises on its own deque (a stalled nested
    // episode is still reachable to thieves); external submitters inject
    // into the tenant-fair registry. Multiple copies let several helpers
    // join concurrently; surplus copies go stale and validate to nothing.
    const bool external =
        tls_worker_scheduler != this || tls_worker_index < 0;
    const size_t copies = std::min(num_chunks - 1, width - 1);
    for (size_t i = 0; i < copies; ++i) {
      Publish(ticket, episode.tenant, external);
    }
    WakeWorkers();
  }

  // The submitter is the episode's first worker: claim chunks until the
  // cursor runs dry, then retire the ticket and wait out the helpers.
  RunChunks(&episode);
  if (ticket != 0) CloseSlot(ticket);
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
