#include "fleet/fleet_manager.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace rudolf {

size_t ResolveFleetTenants(size_t requested) {
  if (std::optional<int64_t> v = IntFromEnv("RUDOLF_FLEET_TENANTS", 1)) {
    return static_cast<size_t>(std::min<int64_t>(*v, 1 << 20));
  }
  return requested;
}

size_t ResolveFleetMemoryBudget(size_t requested_bytes) {
  // Capped at the largest budget whose byte count fits in a size_t.
  constexpr int64_t kMaxMb =
      static_cast<int64_t>(std::numeric_limits<size_t>::max() >> 20);
  if (std::optional<int64_t> v = IntFromEnv("RUDOLF_FLEET_MEMORY_MB", 0, kMaxMb)) {
    return static_cast<size_t>(*v) << 20;
  }
  return requested_bytes;
}

FleetManager::FleetManager(FleetOptions options)
    : options_(std::move(options)),
      sched_(TaskScheduler::Shared(options_.session.eval.num_threads)) {
  // Fleet tenants must be quiescent between rounds for the evictor's
  // HeldMemoryBytes / Release* calls to be safe; a pipelined session's
  // tracker is extended by ingest workers at arbitrary times, so it cannot
  // be budgeted. Session-level streaming still works per tenant — just not
  // under fleet memory management.
  if (options_.session.pipelined != nullptr) {
    RUDOLF_LOG(Warning)
        << "FleetManager: SessionOptions::pipelined is ignored for fleet "
           "tenants (evictor requires quiescence between rounds)";
    options_.session.pipelined = nullptr;
  }
  options_.memory_budget_bytes =
      ResolveFleetMemoryBudget(options_.memory_budget_bytes);
}

FleetManager::~FleetManager() = default;

TenantId FleetManager::AddTenant(std::string name, const Relation* relation,
                                 RuleSet* rules, EditLog* log, Expert* expert) {
  assert(relation != nullptr && rules != nullptr && log != nullptr &&
         expert != nullptr);
  auto tenant = std::make_unique<Tenant>();
  tenant->id = static_cast<TenantId>(tenants_.size() + 1);
  tenant->name = std::move(name);
  tenant->relation = relation;
  tenant->rules = rules;
  tenant->log = log;
  tenant->expert = expert;
  tenant->session =
      std::make_unique<RefinementSession>(*relation, options_.session);
  tenants_.push_back(std::move(tenant));
  return static_cast<TenantId>(tenants_.size());  // ids start at 1
}

const std::string& FleetManager::tenant_name(TenantId tenant) const {
  assert(tenant >= 1 && tenant <= tenants_.size());
  return tenants_[tenant - 1]->name;
}

SessionStats FleetManager::RefineTenant(TenantId tenant, size_t prefix_rows) {
  assert(tenant >= 1 && tenant <= tenants_.size());
  Tenant* t = tenants_[tenant - 1].get();
  SessionStats stats;
  {
    std::lock_guard<std::mutex> g(t->mu);
    {
      // Touch the LRU clock at round *start*: a long round must not look
      // cold to an evictor running mid-round (try_lock protects correctness
      // either way; this protects the accounting from silly choices).
      std::lock_guard<std::mutex> fg(fleet_mu_);
      t->last_used = ++clock_;
    }
    RUDOLF_SPAN("fleet.round");
    // TenantScope first: the tenant-labeled latency samples the TLS tenant
    // at construction, and the round counter wants the label too.
    TenantScope scope(tenant);
    RUDOLF_TENANT_SCOPED_LATENCY("fleet.round.seconds");
    stats = t->session->Refine(prefix_rows, t->rules, t->expert, t->log);
    RUDOLF_TENANT_COUNTER_INC("fleet.rounds");
  }
  AccountAndEvict(t);
  return stats;
}

void FleetManager::RefineAll(size_t prefix_rows) {
  size_t n = tenants_.size();
  if (n == 0) return;
  // One unit per tenant; the round bodies issue their own nested episodes,
  // which idle workers help with — so small fleets still use every thread.
  sched_->ParallelFor(0, n, 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      RefineTenant(static_cast<TenantId>(i + 1), prefix_rows);
    }
  }, /*tag=*/this);
}

void FleetManager::AccountAndEvict(Tenant* tenant) {
  std::lock_guard<std::mutex> g(fleet_mu_);
  // Re-account the tenant that just finished a round. Its mutex is free by
  // now (we are called after the round released it); a racing next round of
  // the same tenant only makes the figure momentarily stale, never wrong
  // for budgeting purposes.
  {
    std::unique_lock<std::mutex> tg(tenant->mu, std::try_to_lock);
    if (tg.owns_lock()) {
      size_t bytes = tenant->session->HeldMemoryBytes();
      held_bytes_total_ += bytes - tenant->held_bytes;
      tenant->held_bytes = bytes;
      // A completed round rebuilt whatever eviction dropped — the tenant is
      // resident again.
      tenant->eviction_tier = 0;
    }
  }
  auto& registry = obs::MetricsRegistry::Default();
  registry.GetGauge("fleet.memory.bytes")
      ->Set(static_cast<int64_t>(held_bytes_total_));
  PublishTenantGauges(tenant);
  ++rounds_;
  size_t budget = options_.memory_budget_bytes;
  int64_t headroom =
      budget == 0 ? 0
                  : static_cast<int64_t>(budget) -
                        static_cast<int64_t>(held_bytes_total_);
  registry.GetGauge("fleet.memory.headroom.bytes")->Set(headroom);
  if (budget == 0 || held_bytes_total_ <= budget) return;

  RUDOLF_SPAN("fleet.evict");
  // LRU order over idle tenants. Tier 1 drops cached condition bitmaps
  // (cheap, scanned again bit-identically on demand); if still over budget,
  // tier 2 drops whole trackers (next round rebuilds, bit-identical by the
  // append-path guarantee). Busy tenants are skipped — they are hot.
  std::vector<Tenant*> order;
  order.reserve(tenants_.size());
  for (const auto& t : tenants_) order.push_back(t.get());
  std::sort(order.begin(), order.end(), [](const Tenant* a, const Tenant* b) {
    return a->last_used < b->last_used;
  });
  for (int tier = 1; tier <= 2 && held_bytes_total_ > budget; ++tier) {
    for (Tenant* t : order) {
      if (held_bytes_total_ <= budget) break;
      if (t->held_bytes == 0) continue;
      std::unique_lock<std::mutex> tg(t->mu, std::try_to_lock);
      if (!tg.owns_lock()) continue;
      if (tier == 1) {
        t->session->ReleaseCachedBitmaps();
        ++cache_evictions_;
        RUDOLF_COUNTER_INC("fleet.evictions.cache");
        registry.GetTenantCounter("fleet.evictions.cache", t->id)->Inc();
      } else {
        t->session->ReleaseTracker();
        ++tracker_evictions_;
        RUDOLF_COUNTER_INC("fleet.evictions.tracker");
        registry.GetTenantCounter("fleet.evictions.tracker", t->id)->Inc();
      }
      RUDOLF_COUNTER_INC("fleet.memory.evictions");
      t->eviction_tier = tier;
      size_t bytes = t->session->HeldMemoryBytes();
      held_bytes_total_ += bytes - t->held_bytes;
      t->held_bytes = bytes;
      PublishTenantGauges(t);
    }
  }
  registry.GetGauge("fleet.memory.bytes")
      ->Set(static_cast<int64_t>(held_bytes_total_));
  if (budget != 0) {
    registry.GetGauge("fleet.memory.headroom.bytes")
        ->Set(static_cast<int64_t>(budget) -
              static_cast<int64_t>(held_bytes_total_));
  }
}

void FleetManager::PublishTenantGauges(Tenant* tenant) {
  // Caller holds fleet_mu_ (held_bytes / eviction_tier are fleet state).
  auto& registry = obs::MetricsRegistry::Default();
  registry.GetTenantGauge("fleet.tenant.memory.bytes", tenant->id)
      ->Set(static_cast<int64_t>(tenant->held_bytes));
  registry.GetTenantGauge("fleet.tenant.eviction.tier", tenant->id)
      ->Set(tenant->eviction_tier);
}

FleetStats FleetManager::stats() const {
  std::lock_guard<std::mutex> g(fleet_mu_);
  FleetStats s;
  s.tenants = tenants_.size();
  s.rounds = rounds_;
  s.held_bytes = held_bytes_total_;
  s.cache_evictions = cache_evictions_;
  s.tracker_evictions = tracker_evictions_;
  return s;
}

}  // namespace rudolf
