// Section 5 runs every experiment over transaction sets from 15 financial
// institutes and 8 experts. Earlier revisions played those institutes
// through the protocol one at a time; this bench promotes the fleet to what
// a production deployment actually is — N institutes refined *concurrently*
// in one process, sharing the task scheduler and a global memory
// budget (src/fleet/) — and measures what the serial loop could not:
//
//   1. serialized baseline: tenants refined one after another (one session
//      owns all parallelism at a time);
//   2. concurrent fleet: the same rounds dispatched as scheduler waves,
//      reporting aggregate rounds/sec, per-tenant p95 round latency and the
//      RSS ceiling — with a bit-identity gate against the baseline replay;
//   3. memory pressure: the same fleet under a deliberately small budget,
//      asserting the evictor fires and stays invisible in the outputs.
//
// Phases 1 and 2 each time a fraction of a second, on a host whose speed
// drifts, so they run kRepetitions times, interleaved and each on fresh
// worlds, and the speedup is the ratio of their median rounds/sec.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/session.h"
#include "expert/oracle_expert.h"
#include "fleet/fleet_manager.h"
#include "util/string_util.h"
#include "workload/initial_rules.h"

using namespace rudolf;
using namespace rudolf::bench;

namespace {

constexpr int kRounds = 3;
// Timed runs of phases 1 and 2 each; odd, so the median is one run.
constexpr int kRepetitions = 5;

size_t PrefixAt(size_t rows, int round) {  // 40% initial, +20% per round
  double frac = 0.4 + 0.2 * round;
  if (frac > 1.0) frac = 1.0;
  return static_cast<size_t>(frac * static_cast<double>(rows));
}

// One institute's world: its stream, rule set, edit log and expert.
// Rebuilt identically (same seed) for every phase, so phases never share
// mutable state and each run is an independent deterministic replay.
struct TenantWorld {
  Dataset dataset;
  RuleSet rules;
  EditLog log;
  std::unique_ptr<OracleExpert> expert;
  Rng reveal_rng{0};
  size_t rows;

  TenantWorld(uint64_t seed, size_t rows_in)
      : dataset(GenerateDataset(DefaultScenario(rows_in, seed).options)),
        reveal_rng(seed ^ 0xA11CEULL),
        rows(rows_in) {
    rules = SynthesizeInitialRules(dataset, InitialRuleOptions{});
    expert = MakeDomainExpert(dataset, seed);
    Rng rng(seed);
    RevealLabels(dataset.relation.get(), 0, PrefixAt(rows, 0),
                 dataset.options.label_coverage,
                 dataset.options.mislabel_fraction,
                 dataset.options.false_fraud_fraction, &rng);
  }

  void RevealRound(int round) {
    RevealLabels(dataset.relation.get(), PrefixAt(rows, round - 1),
                 PrefixAt(rows, round), dataset.options.label_coverage,
                 dataset.options.mislabel_fraction,
                 dataset.options.false_fraud_fraction, &reveal_rng);
  }

  std::string RulesString() const {
    return rules.ToString(dataset.relation->schema());
  }
};

std::vector<std::unique_ptr<TenantWorld>> BuildWorlds(size_t tenants,
                                                      size_t rows) {
  std::vector<std::unique_ptr<TenantWorld>> worlds;
  worlds.reserve(tenants);
  for (size_t i = 0; i < tenants; ++i) {
    worlds.push_back(std::make_unique<TenantWorld>(3 + 2 * i, rows));
  }
  return worlds;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Current and peak resident set from /proc/self/status, in MiB (0 when the
// file is unavailable, e.g. non-Linux).
void ReadRss(double* rss_mb, double* hwm_mb) {
  *rss_mb = 0;
  *hwm_mb = 0;
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    long kb = 0;
    if (std::sscanf(line, "VmRSS: %ld kB", &kb) == 1) {
      *rss_mb = static_cast<double>(kb) / 1024.0;
    } else if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
      *hwm_mb = static_cast<double>(kb) / 1024.0;
    }
  }
  std::fclose(f);
}

struct PhaseResult {
  std::vector<std::string> rules;
  std::vector<size_t> edits;
  double seconds = 0;
};

// Phase 1: the pre-fleet deployment model — institutes one after another,
// each session free to use every thread (which is exactly what the old
// fork-join gang allowed: full width for one issuer, everyone else waits).
PhaseResult GangSerialized(size_t tenants, size_t rows) {
  auto worlds = BuildWorlds(tenants, rows);
  PhaseResult result;
  auto start = std::chrono::steady_clock::now();
  for (auto& world : worlds) {
    SessionOptions options;
    options.eval.num_threads = 0;  // full width, but one tenant at a time
    RefinementSession session(*world->dataset.relation, options);
    for (int round = 1; round <= kRounds; ++round) {
      world->RevealRound(round);
      session.Refine(PrefixAt(rows, round), &world->rules,
                     world->expert.get(), &world->log);
    }
  }
  result.seconds = SecondsSince(start);
  for (auto& world : worlds) {
    result.rules.push_back(world->RulesString());
    result.edits.push_back(world->log.size());
  }
  return result;
}

// Phases 2 and 3: the concurrent fleet, optionally under a memory budget.
PhaseResult ConcurrentFleet(size_t tenants, size_t rows, size_t budget_bytes,
                            FleetStats* stats_out) {
  auto worlds = BuildWorlds(tenants, rows);
  FleetOptions options;
  options.session.eval.num_threads = 0;
  options.memory_budget_bytes = budget_bytes;
  FleetManager fleet(options);
  for (auto& world : worlds) {
    fleet.AddTenant("FI", world->dataset.relation.get(), &world->rules,
                    &world->log, world->expert.get());
  }
  PhaseResult result;
  auto start = std::chrono::steady_clock::now();
  for (int round = 1; round <= kRounds; ++round) {
    for (auto& world : worlds) world->RevealRound(round);
    fleet.RefineAll(PrefixAt(rows, round));
  }
  result.seconds = SecondsSince(start);
  for (auto& world : worlds) {
    result.rules.push_back(world->RulesString());
    result.edits.push_back(world->log.size());
  }
  *stats_out = fleet.stats();
  return result;
}

bool Identical(const PhaseResult& a, const PhaseResult& b) {
  return a.rules == b.rules && a.edits == b.edits;
}

double MedianSeconds(const std::vector<PhaseResult>& runs) {
  std::vector<double> seconds;
  for (const PhaseResult& run : runs) seconds.push_back(run.seconds);
  std::sort(seconds.begin(), seconds.end());
  return seconds[seconds.size() / 2];
}

}  // namespace

int main() {
  Banner("Section 5 protocol — concurrent institute fleet",
         "one deployment serves many institutes; concurrency and memory "
         "budgeting must not change any institute's refinement outcome");

  // Scrapers may attach for the whole run (RUDOLF_METRICS_PORT): the fleet
  // phases emit the tenant-labeled series /fleetz tabulates.
  LiveMetricsScope live_metrics;

  const size_t tenants = ResolveFleetTenants(64);
  const size_t rows = BenchRows(4000);  // per tenant
  const size_t total_rounds = tenants * kRounds;
  const int width = TaskScheduler::Shared()->num_threads();
  std::printf("tenants %zu, rows/tenant %zu, rounds/tenant %d, "
              "scheduler width %d\n\n",
              tenants, rows, kRounds, width);

  // Phase 1: gang-serialized baseline (also the bit-identity reference —
  // tenants are independent, so one-at-a-time IS the serial per-tenant
  // replay). Phase 2: concurrent fleet, unlimited memory. The repetitions
  // alternate which phase runs first.
  std::vector<PhaseResult> gangs;
  std::vector<PhaseResult> fleets;
  FleetStats fleet_stats;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    if (rep % 2 == 1) {
      fleets.push_back(ConcurrentFleet(tenants, rows, /*budget=*/0,
                                       &fleet_stats));
    }
    gangs.push_back(GangSerialized(tenants, rows));
    if (rep % 2 == 0) {
      fleets.push_back(ConcurrentFleet(tenants, rows, /*budget=*/0,
                                       &fleet_stats));
    }
  }
  for (size_t rep = 0; rep < gangs.size(); ++rep) {
    std::printf("[repetition %zu] gang-serialized %.3fs, concurrent fleet "
                "%.3fs (%.2fx)\n",
                rep + 1, gangs[rep].seconds, fleets[rep].seconds,
                gangs[rep].seconds / fleets[rep].seconds);
  }
  const PhaseResult& gang = gangs.front();
  const double gang_s = MedianSeconds(gangs);
  const double fleet_s = MedianSeconds(fleets);
  double gang_rps = static_cast<double>(total_rounds) / gang_s;
  std::printf("[phase 1] gang-serialized: median %.3fs of %d runs, "
              "%.1f rounds/sec\n",
              gang_s, kRepetitions, gang_rps);
  double fleet_rps = static_cast<double>(total_rounds) / fleet_s;
  obs::MetricsSnapshot snap = obs::MetricsRegistry::Default().Snapshot();
  const obs::HistogramSample* rounds_hist =
      snap.FindHistogram("fleet.round.seconds");
  double p95_ms =
      (rounds_hist != nullptr ? rounds_hist->ValueAtQuantile(0.95) : 0.0) * 1e3;
  double rss_mb = 0, hwm_mb = 0;
  ReadRss(&rss_mb, &hwm_mb);
  double speedup = fleet_rps / gang_rps;
  std::printf("[phase 2] concurrent fleet: median %.3fs of %d runs, "
              "%.1f rounds/sec (%.2fx), p95 round %.1f ms, RSS %.0f MiB "
              "(peak %.0f)\n",
              fleet_s, kRepetitions, fleet_rps, speedup, p95_ms, rss_mb,
              hwm_mb);

  bool identical = true;
  for (const PhaseResult& run : gangs) {
    identical = identical && Identical(gang, run);
  }
  for (const PhaseResult& run : fleets) {
    identical = identical && Identical(gang, run);
  }
  ShapeCheck("concurrent fleet outputs are bit-identical to serial replay",
             identical);
  // Oversubscribing a narrow box with RUDOLF_THREADS can't beat serial, so
  // the speedup gate needs real cores behind the width, not just a request.
  const unsigned cores = std::thread::hardware_concurrency();
  if (width >= 4 && cores >= 4) {
    ShapeCheck("concurrent fleet >= 3x gang-serialized rounds/sec",
               speedup >= 3.0);
  } else {
    std::printf("[shape-check] >= 3x speedup: SKIPPED (scheduler width %d, "
                "hardware cores %u; got %.2fx)\n", width, cores, speedup);
  }

  // Phase 3: memory pressure. A budget far below the fleet's natural
  // footprint (a tenant's tracker runs hundreds of KiB at these stream
  // sizes; grant 32 KiB each) forces the LRU evictor through both tiers.
  const size_t budget = tenants * (size_t{32} << 10);
  FleetStats pressured_stats;
  PhaseResult pressured = ConcurrentFleet(tenants, rows, budget,
                                          &pressured_stats);
  std::printf("\n[phase 3] budget %zu KiB: held %zu KiB after final wave, "
              "%llu cache evictions, %llu tracker evictions\n",
              budget >> 10, pressured_stats.held_bytes >> 10,
              static_cast<unsigned long long>(pressured_stats.cache_evictions),
              static_cast<unsigned long long>(
                  pressured_stats.tracker_evictions));
  ShapeCheck("evictor fired under pressure",
             pressured_stats.cache_evictions +
                 pressured_stats.tracker_evictions > 0);
  ShapeCheck("held bytes within budget after final wave",
             pressured_stats.held_bytes <= budget);
  ShapeCheck("evicted fleet outputs are bit-identical to serial replay",
             Identical(gang, pressured));

  BenchJson json("institute_fleet", tenants * rows);
  json.Metric("tenants", static_cast<double>(tenants));
  json.Metric("scheduler_width", width);
  json.Metric("repetitions", kRepetitions);
  json.Metric("gang_rounds_per_sec", gang_rps);
  json.Metric("fleet_rounds_per_sec", fleet_rps);
  json.Metric("speedup", speedup);
  json.Metric("p95_round_ms", p95_ms);
  json.Metric("rss_mb", rss_mb);
  json.Metric("rss_peak_mb", hwm_mb);
  json.Metric("bit_identical", identical ? 1 : 0);
  json.Metric("pressure_evictions",
              static_cast<double>(pressured_stats.cache_evictions +
                                  pressured_stats.tracker_evictions));
  json.Metric("pressure_held_bytes",
              static_cast<double>(pressured_stats.held_bytes));
  json.Write();
  return identical && Identical(gang, pressured) ? 0 : 1;
}
