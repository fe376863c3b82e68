// Multi-tenant fleet service: one process hosting N persistent refinement
// sessions (an "institute" of analysts, each with their own rule set and
// transaction stream) over a single shared task scheduler, under a global
// memory budget.
//
// The scheduler gives the fleet its concurrency model: a wave is one
// episode with one unit per tenant, and the episodes a round issues carry
// its tenant id, so rounds interleave at chunk granularity and idle
// workers join tenants' episodes round-robin, which keeps a large tenant
// from starving small ones. The budget gives it a memory model: each
// tenant's held bytes (persistent tracker: capture bitmaps + the condition
// cache's bitmaps) are accounted after every round, and when the total
// exceeds the budget the coldest tenants are evicted — first their cached
// condition bitmaps, which frees everything but the captures (cheap to
// scan again, bit-identical), then their whole tracker (the next round
// rebuilds it, which DESIGN.md "Incremental append path" guarantees is
// bit-identical to having extended it). Eviction therefore never changes
// any tenant's refinement outcome, only its latency.
//
// Lock ordering (see DESIGN.md §15): a tenant's round holds its tenant
// mutex and may briefly take the fleet mutex for accounting; the evictor
// holds the fleet mutex and only try-locks tenant mutexes — a busy tenant
// is simply skipped (it is hot, not LRU). A round runs as the body of a
// wave's episode and holds its tenant mutex across Refine, which submits
// nested episodes and waits for them. That cannot deadlock: the helpers of
// a nested episode run only that episode's chunks, which take no fleet or
// tenant lock, and the scheduler's own mutex is a leaf lock, never held
// while a body runs or while anyone waits on an episode.

#ifndef RUDOLF_FLEET_FLEET_MANAGER_H_
#define RUDOLF_FLEET_FLEET_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/session.h"
#include "util/task_scheduler.h"

namespace rudolf {

class Expert;

/// The effective tenant count: `RUDOLF_FLEET_TENANTS` (a positive integer)
/// wins over the requested value. Bench drivers use this so CI smoke runs
/// can shrink the fleet without editing the bench.
size_t ResolveFleetTenants(size_t requested);

/// The effective fleet memory budget in bytes: `RUDOLF_FLEET_MEMORY_MB`
/// (a non-negative integer, 0 = unlimited) wins over the requested value.
size_t ResolveFleetMemoryBudget(size_t requested_bytes);

/// Configuration of a fleet.
struct FleetOptions {
  /// Template for every tenant's session. `eval.num_threads` sizes the one
  /// shared scheduler; `pipelined` must stay null — fleet tenants are
  /// self-contained sessions, and the evictor relies on quiescence between
  /// rounds.
  SessionOptions session;
  /// Global budget over the sum of all tenants' held tracker bytes;
  /// 0 = unlimited. Checked after every round; exceeding it triggers LRU
  /// eviction down to the budget (or until every idle tenant is fully
  /// evicted). Overridable via `RUDOLF_FLEET_MEMORY_MB`.
  size_t memory_budget_bytes = 0;
};

/// Aggregate fleet accounting (monotonic since construction).
struct FleetStats {
  size_t tenants = 0;
  uint64_t rounds = 0;            ///< RefineTenant calls completed
  size_t held_bytes = 0;          ///< current sum of tenant tracker bytes
  uint64_t cache_evictions = 0;   ///< tier-1: cached bitmaps dropped
  uint64_t tracker_evictions = 0; ///< tier-2: whole trackers dropped
};

/// \brief Owns N persistent RefinementSessions sharing one scheduler and
/// one memory budget.
///
/// Thread-safe: RefineTenant may be called concurrently for different
/// tenants (calls for the same tenant serialize on its mutex). The tenant
/// roster is append-only — AddTenant must not race RefineTenant.
class FleetManager {
 public:
  explicit FleetManager(FleetOptions options);
  ~FleetManager();

  FleetManager(const FleetManager&) = delete;
  FleetManager& operator=(const FleetManager&) = delete;

  /// Registers a tenant and creates its persistent session. The relation,
  /// rule set, edit log and expert are the caller's (the fleet owns only
  /// the session) and must outlive the fleet. Returns the tenant's id —
  /// ids are dense, starting at 1 (0 is the scheduler's "untagged" tenant).
  TenantId AddTenant(std::string name, const Relation* relation,
                     RuleSet* rules, EditLog* log, Expert* expert);

  /// Runs one refinement round for the tenant over the first `prefix_rows`
  /// rows of its relation, inside a TenantScope so the round's scheduler
  /// episodes are fair-shared under the tenant's id. Serializes with other
  /// rounds of the same tenant; rounds of different tenants interleave on
  /// the shared scheduler. Afterwards re-accounts the tenant's held bytes
  /// and evicts cold tenants if the fleet is over budget.
  SessionStats RefineTenant(TenantId tenant, size_t prefix_rows);

  /// One wave: a round for every tenant, dispatched as a scheduler episode
  /// with one unit per tenant, so waves of a 64-tenant fleet keep every
  /// worker busy. `prefix_rows` applies to all tenants (SIZE_MAX = each
  /// tenant's full relation).
  void RefineAll(size_t prefix_rows);

  size_t num_tenants() const { return tenants_.size(); }
  const std::string& tenant_name(TenantId tenant) const;

  /// Current aggregate accounting (held_bytes is the last accounted sum,
  /// also exported as the `fleet.memory.bytes` gauge).
  FleetStats stats() const;

  /// The scheduler all tenants share.
  TaskScheduler* scheduler() const { return sched_; }

 private:
  struct Tenant {
    TenantId id = 0;            // dense, starting at 1 (metric label)
    std::string name;
    const Relation* relation = nullptr;
    RuleSet* rules = nullptr;
    EditLog* log = nullptr;
    Expert* expert = nullptr;
    std::unique_ptr<RefinementSession> session;
    std::mutex mu;              // serializes this tenant's rounds + eviction
    size_t held_bytes = 0;      // last accounted HeldMemoryBytes (fleet_mu_)
    uint64_t last_used = 0;     // fleet clock at last round start (fleet_mu_)
    int eviction_tier = 0;      // 0 resident, 1 bitmaps dropped, 2 tracker
  };

  // Re-reads `tenant`'s held bytes, updates the global sum and gauge, and
  // runs LRU eviction while over budget. Takes fleet_mu_; only try-locks
  // tenant mutexes.
  void AccountAndEvict(Tenant* tenant);

  // Publishes the tenant's labeled gauges (`fleet.tenant.memory.bytes`,
  // `fleet.tenant.eviction.tier`). Caller holds fleet_mu_.
  void PublishTenantGauges(Tenant* tenant);

  FleetOptions options_;
  TaskScheduler* sched_;  // shared singleton, not owned
  std::vector<std::unique_ptr<Tenant>> tenants_;

  mutable std::mutex fleet_mu_;
  uint64_t clock_ = 0;            // LRU timestamps (round sequence numbers)
  size_t held_bytes_total_ = 0;   // sum of tenants' held_bytes
  uint64_t rounds_ = 0;
  uint64_t cache_evictions_ = 0;
  uint64_t tracker_evictions_ = 0;
};

}  // namespace rudolf

#endif  // RUDOLF_FLEET_FLEET_MANAGER_H_
