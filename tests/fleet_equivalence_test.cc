// Fleet-mode equivalence: N tenants refined concurrently on the shared
// task scheduler — with and without memory-budget eviction — must
// produce bit-identical rule sets and edit logs to each tenant refined
// alone, serially, at num_threads = 1. This is the determinism contract of
// DESIGN.md ("Parallel evaluation pipeline") composed with the fleet layer:
// scheduler interleavings, tenant fairness, cache eviction and tracker
// eviction are all invisible in the outputs.

#include "fleet/fleet_manager.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/session.h"
#include "expert/oracle_expert.h"
#include "obs/metrics.h"
#include "workload/generator.h"
#include "workload/initial_rules.h"
#include "workload/scenarios.h"

namespace rudolf {
namespace {

constexpr size_t kRows = 3000;
constexpr int kRounds = 3;

size_t PrefixAt(int round) {  // 40% initial, +15% per round
  double frac = 0.4 + 0.15 * round;
  if (frac > 1.0) frac = 1.0;
  return static_cast<size_t>(frac * kRows);
}

// One tenant's world, rebuilt identically for baseline and fleet runs.
struct TenantWorld {
  Dataset dataset;
  RuleSet rules;
  EditLog log;
  std::unique_ptr<OracleExpert> expert;
  Rng reveal_rng{0};

  explicit TenantWorld(uint64_t seed)
      : dataset(GenerateDataset(DefaultScenario(kRows, seed).options)),
        reveal_rng(seed ^ 0xA11CEULL) {
    rules = SynthesizeInitialRules(dataset, InitialRuleOptions{});
    expert = MakeDomainExpert(dataset, seed);
    Rng rng(seed);
    RevealLabels(dataset.relation.get(), 0, PrefixAt(0),
                 dataset.options.label_coverage,
                 dataset.options.mislabel_fraction,
                 dataset.options.false_fraud_fraction, &rng);
  }

  void RevealRound(int round) {
    RevealLabels(dataset.relation.get(), PrefixAt(round - 1), PrefixAt(round),
                 dataset.options.label_coverage,
                 dataset.options.mislabel_fraction,
                 dataset.options.false_fraud_fraction, &reveal_rng);
  }

  std::string RulesString() const {
    return rules.ToString(dataset.relation->schema());
  }
};

struct TenantOutcome {
  std::string rules;
  size_t edits = 0;
};

// Serial per-tenant reference: one session, num_threads = 1, rounds in
// order.
TenantOutcome SerialBaseline(uint64_t seed) {
  TenantWorld world(seed);
  SessionOptions options;
  options.eval.num_threads = 1;
  RefinementSession session(*world.dataset.relation, options);
  for (int round = 1; round <= kRounds; ++round) {
    world.RevealRound(round);
    session.Refine(PrefixAt(round), &world.rules, world.expert.get(),
                   &world.log);
  }
  return TenantOutcome{world.RulesString(), world.log.size()};
}

std::vector<uint64_t> TenantSeeds(size_t n) {
  std::vector<uint64_t> seeds;
  for (size_t i = 0; i < n; ++i) seeds.push_back(3 + 2 * i);
  return seeds;
}

// Fleet run over the same seeds: concurrent waves on the shared scheduler,
// optionally under a memory budget tight enough to force eviction.
std::vector<TenantOutcome> FleetRun(const std::vector<uint64_t>& seeds,
                                    size_t budget_bytes) {
  std::vector<std::unique_ptr<TenantWorld>> worlds;
  for (uint64_t seed : seeds) {
    worlds.push_back(std::make_unique<TenantWorld>(seed));
  }
  FleetOptions options;
  options.session.eval.num_threads = 0;  // shared scheduler, all threads
  options.memory_budget_bytes = budget_bytes;
  FleetManager fleet(options);
  for (auto& world : worlds) {
    fleet.AddTenant("t", world->dataset.relation.get(), &world->rules,
                    &world->log, world->expert.get());
  }
  for (int round = 1; round <= kRounds; ++round) {
    for (auto& world : worlds) world->RevealRound(round);
    fleet.RefineAll(PrefixAt(round));
  }
  EXPECT_EQ(fleet.stats().rounds,
            static_cast<uint64_t>(seeds.size()) * kRounds);
  std::vector<TenantOutcome> out;
  for (auto& world : worlds) {
    out.push_back(TenantOutcome{world->RulesString(), world->log.size()});
  }
  return out;
}

TEST(FleetEquivalence, ConcurrentTenantsMatchSerialReplay) {
  // Unless the suite runs under an explicit RUDOLF_FLEET_TENANTS (the tsan
  // CI leg sets 8), keep the fleet small for speed.
  size_t tenants = ResolveFleetTenants(4);
  std::vector<uint64_t> seeds = TenantSeeds(tenants);
  std::vector<TenantOutcome> fleet = FleetRun(seeds, /*budget_bytes=*/0);
  ASSERT_EQ(fleet.size(), seeds.size());
  for (size_t i = 0; i < seeds.size(); ++i) {
    TenantOutcome serial = SerialBaseline(seeds[i]);
    EXPECT_EQ(fleet[i].rules, serial.rules) << "tenant seed " << seeds[i];
    EXPECT_EQ(fleet[i].edits, serial.edits) << "tenant seed " << seeds[i];
  }
}

TEST(FleetEquivalence, EvictionUnderBudgetIsInvisibleInOutputs) {
  size_t tenants = ResolveFleetTenants(4);
  std::vector<uint64_t> seeds = TenantSeeds(tenants);
  uint64_t evictions_before = obs::MetricsRegistry::Default()
                                  .GetCounter("fleet.memory.evictions")
                                  ->Value();
  // A deliberately absurd 1-byte budget: every accounting pass evicts every
  // idle tenant, so rounds constantly rebuild caches and trackers.
  std::vector<TenantOutcome> fleet = FleetRun(seeds, /*budget_bytes=*/1);
  uint64_t evictions_after = obs::MetricsRegistry::Default()
                                 .GetCounter("fleet.memory.evictions")
                                 ->Value();
  EXPECT_GT(evictions_after, evictions_before)
      << "a 1-byte budget must force evictions";
  for (size_t i = 0; i < seeds.size(); ++i) {
    TenantOutcome serial = SerialBaseline(seeds[i]);
    EXPECT_EQ(fleet[i].rules, serial.rules) << "tenant seed " << seeds[i];
    EXPECT_EQ(fleet[i].edits, serial.edits) << "tenant seed " << seeds[i];
  }
}

TEST(FleetManagerBasics, StatsAndNames) {
  TenantWorld world(3);
  FleetOptions options;
  options.session.eval.num_threads = 1;
  FleetManager fleet(options);
  TenantId id = fleet.AddTenant("acme", world.dataset.relation.get(),
                                &world.rules, &world.log, world.expert.get());
  EXPECT_EQ(id, 1u);
  EXPECT_EQ(fleet.num_tenants(), 1u);
  EXPECT_EQ(fleet.tenant_name(id), "acme");
  FleetStats s0 = fleet.stats();
  EXPECT_EQ(s0.rounds, 0u);
  world.RevealRound(1);
  fleet.RefineTenant(id, PrefixAt(1));
  FleetStats s1 = fleet.stats();
  EXPECT_EQ(s1.rounds, 1u);
  EXPECT_GT(s1.held_bytes, 0u) << "a refined tenant holds tracker memory";
}

TEST(FleetEnvKnobs, ResolversParseAndClamp) {
  if (std::getenv("RUDOLF_FLEET_TENANTS") == nullptr) {
    EXPECT_EQ(ResolveFleetTenants(64), 64u);
  }
  if (std::getenv("RUDOLF_FLEET_MEMORY_MB") == nullptr) {
    EXPECT_EQ(ResolveFleetMemoryBudget(123), 123u);
  }
}

TEST(FleetEnvKnobs, InvalidValuesFallBackToTheRequest) {
  // Saved and restored: CI runs this suite under RUDOLF_FLEET_TENANTS=8.
  const char* names[] = {"RUDOLF_FLEET_TENANTS", "RUDOLF_FLEET_MEMORY_MB"};
  std::vector<const char*> outer;
  std::vector<std::string> saved;
  for (const char* name : names) {
    outer.push_back(std::getenv(name));
    saved.push_back(outer.back() != nullptr ? outer.back() : "");
  }
  setenv("RUDOLF_FLEET_TENANTS", "8x", 1);  // trailing garbage
  EXPECT_EQ(ResolveFleetTenants(64), 64u);
  setenv("RUDOLF_FLEET_TENANTS", "0", 1);  // below the range
  EXPECT_EQ(ResolveFleetTenants(64), 64u);
  setenv("RUDOLF_FLEET_TENANTS", "8", 1);
  EXPECT_EQ(ResolveFleetTenants(64), 8u);
  setenv("RUDOLF_FLEET_TENANTS", "2000000", 1);  // accepted, clamped as before
  EXPECT_EQ(ResolveFleetTenants(64), size_t{1} << 20);
  setenv("RUDOLF_FLEET_MEMORY_MB", "16MB", 1);
  EXPECT_EQ(ResolveFleetMemoryBudget(123), 123u);
  setenv("RUDOLF_FLEET_MEMORY_MB", "-1", 1);
  EXPECT_EQ(ResolveFleetMemoryBudget(123), 123u);
  setenv("RUDOLF_FLEET_MEMORY_MB", "16", 1);
  EXPECT_EQ(ResolveFleetMemoryBudget(123), size_t{16} << 20);
  setenv("RUDOLF_FLEET_MEMORY_MB", "0", 1);  // 0 = unlimited
  EXPECT_EQ(ResolveFleetMemoryBudget(123), 0u);
  for (size_t i = 0; i < outer.size(); ++i) {
    if (outer[i] != nullptr) {
      setenv(names[i], saved[i].c_str(), 1);
    } else {
      unsetenv(names[i]);
    }
  }
}

}  // namespace
}  // namespace rudolf
