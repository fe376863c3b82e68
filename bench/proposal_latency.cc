// In-text claim (Section 5, "Measurements"): "We also measured the running
// time required by RUDOLF to select the proposed modifications. For our
// datasets this was always at most one second." This google-benchmark
// binary measures the two proposal paths — ranking generalization
// candidates for a representative (Algorithm 1, lines 3–4) and ranking the
// splits for a captured legitimate tuple (Algorithm 2, line 5) — across
// relation sizes, plus the capture-tracker (re)build that precedes a
// session. The fixtures' trackers evaluate at one thread; under
// RUDOLF_THREADS > 1 the rankings over more than 65,536 rows (the 100k and
// 400k fixtures) score on the task scheduler: a split ranking walks its
// rule's capture in 65,536-row chunks, and the generalization candidates
// are extracted, intersected and scored as one parallel batch.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_common.h"
#include "core/capture_tracker.h"
#include "core/generalize.h"
#include "core/specialize.h"
#include "obs/metrics.h"
#include "workload/initial_rules.h"
#include "workload/scenarios.h"

namespace rudolf {
namespace {

struct Fixture {
  Dataset dataset;
  std::unique_ptr<CaptureTracker> tracker;  // holds the rule set
  Rule representative;
  size_t legit_row = 0;
  RuleId legit_rule = kInvalidRule;
};

// One fixture per size, built lazily and cached for all benchmark runs.
Fixture& GetFixture(size_t n) {
  static std::map<size_t, std::unique_ptr<Fixture>> cache;
  auto it = cache.find(n);
  if (it != cache.end()) return *it->second;

  auto fx = std::make_unique<Fixture>();
  fx->dataset = GenerateDataset(DefaultScenario(n).options);
  Rng reveal(7);
  RevealLabels(fx->dataset.relation.get(), 0, n, 0.95, 0.05, 0.002, &reveal);
  fx->tracker = std::make_unique<CaptureTracker>(
      *fx->dataset.relation, SynthesizeInitialRules(fx->dataset));
  // A representative: the first drifted pattern's exact rule.
  fx->representative = fx->dataset.patterns.back().ToRule(fx->dataset.cc);
  // A captured legitimate tuple for the split path: widen one rule so it
  // certainly captures something legitimate.
  RuleId wide = fx->tracker->Add(Rule::Trivial(*fx->dataset.cc.schema));
  for (size_t r = 0; r < n; ++r) {
    if (fx->dataset.relation->VisibleLabel(r) == Label::kLegitimate) {
      fx->legit_row = r;
      fx->legit_rule = wide;
      break;
    }
  }
  auto& ref = *fx;
  cache[n] = std::move(fx);
  return ref;
}

void BM_RankGeneralizationCandidates(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Fixture& fx = GetFixture(n);
  GeneralizationEngine engine(*fx.dataset.relation, GeneralizeOptions{});
  for (auto _ : state) {
    auto proposals =
        engine.RankCandidates(*fx.tracker, fx.representative, 8);
    benchmark::DoNotOptimize(proposals);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

void BM_RankSplits(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Fixture& fx = GetFixture(n);
  SpecializationEngine engine(*fx.dataset.relation, SpecializeOptions{});
  for (auto _ : state) {
    auto proposals =
        engine.RankSplits(*fx.tracker, fx.legit_rule, fx.legit_row);
    benchmark::DoNotOptimize(proposals);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

void BM_CaptureTrackerBuild(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Fixture& fx = GetFixture(n);
  for (auto _ : state) {
    CaptureTracker tracker(*fx.dataset.relation, fx.tracker->rules(), n);
    benchmark::DoNotOptimize(tracker.TotalCounts());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

void BM_EvalRuleSet(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Fixture& fx = GetFixture(n);
  RuleEvaluator eval(*fx.dataset.relation, n);
  for (auto _ : state) {
    Bitset captured = eval.EvalRuleSet(fx.tracker->rules());
    benchmark::DoNotOptimize(captured);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

BENCHMARK(BM_RankGeneralizationCandidates)->Arg(10000)->Arg(100000)->Arg(400000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RankSplits)->Arg(10000)->Arg(100000)->Arg(400000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CaptureTrackerBuild)->Arg(10000)->Arg(100000)->Arg(400000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EvalRuleSet)->Arg(10000)->Arg(100000)->Arg(400000)
    ->Unit(benchmark::kMillisecond);

// Prints one registry histogram as a row of the per-phase latency table and
// returns its p95 (0 when the phase never ran).
double ReportPhase(const obs::MetricsSnapshot& snap, const char* name) {
  const obs::HistogramSample* h = snap.FindHistogram(name);
  if (h == nullptr || h->count == 0) {
    std::printf("  %-32s (no samples)\n", name);
    return 0.0;
  }
  std::printf("  %-32s n=%-8llu p50=%8.4fs  p95=%8.4fs  max=%8.4fs\n", name,
              static_cast<unsigned long long>(h->count),
              h->ValueAtQuantile(0.50), h->ValueAtQuantile(0.95),
              h->max_seconds);
  return h->ValueAtQuantile(0.95);
}

}  // namespace
}  // namespace rudolf

// Custom main (instead of BENCHMARK_MAIN): after the google-benchmark runs,
// the metrics registry has accumulated every proposal-phase latency the
// benches exercised — summarize it against the paper's one-second claim.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  using namespace rudolf;
  obs::MetricsSnapshot snap = obs::MetricsRegistry::Default().Snapshot();
  std::printf("\nProposal-phase latency (metrics registry, all sizes pooled):\n");
  double rank_p95 = ReportPhase(snap, "generalize.rank.seconds");
  double split_p95 = ReportPhase(snap, "specialize.rank_splits.seconds");
  ReportPhase(snap, "generalize.cluster.seconds");
  ReportPhase(snap, "tracker.build.seconds");

  // Section 5: proposal selection was "always at most one second".
  bench::ShapeCheck("generalization ranking p95 <= 1s",
                    rank_p95 > 0.0 && rank_p95 <= 1.0);
  bench::ShapeCheck("split ranking p95 <= 1s",
                    split_p95 > 0.0 && split_p95 <= 1.0);

  bench::BenchJson json("proposal_latency", 400000);
  json.Metric("generalize_rank_p95_s", rank_p95);
  json.Metric("specialize_rank_splits_p95_s", split_p95);
  json.Write();

  std::printf(
      "\nhint: rerun with RUDOLF_TRACE=proposal_latency.trace.json and "
      "summarize per-span timings with scripts/trace_report.py\n");
  return 0;
}
