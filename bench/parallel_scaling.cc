// Thread-scaling benchmark for the parallel evaluation engine: measures
// EvalRule (row-block scan), EvalRuleSet (blocked union of row-block scans)
// and the CaptureTracker bitmap build (the condition cache's blocked scan
// pass, on a fresh cache) on a large synthetic relation at 1/2/4/8 worker
// threads, in milliseconds, and reports the speedup over the serial engine.
// The EvalRule and EvalRuleSet evaluators run with the condition cache off,
// so they scan on every call instead of copying cached bitmaps. Results are
// asserted bit-identical across thread counts while timing.
//
//   RUDOLF_BENCH_N=...   rows (default 1,000,000)
//   RUDOLF_THREADS=...   overrides every measured thread count — unset it
//                        when running this bench.

#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/capture_tracker.h"
#include "rules/evaluator.h"
#include "util/random.h"
#include "workload/generator.h"
#include "workload/initial_rules.h"

namespace rudolf {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Median-of-three wall-clock timing (the shared scheduler is created by a
// warmup run, so thread spawn cost is excluded — as it is in the engine,
// which reuses TaskScheduler::Shared across evaluations).
template <typename Fn>
double TimeMedian3(const Fn& fn) {
  double t[3];
  for (double& s : t) {
    auto a = Clock::now();
    fn();
    s = Seconds(a, Clock::now());
  }
  if (t[0] > t[1]) std::swap(t[0], t[1]);
  if (t[1] > t[2]) std::swap(t[1], t[2]);
  return t[0] > t[1] ? t[0] : t[1];
}

struct Row {
  const char* what;
  double serial_seconds;
};

void PrintHeader(const int* threads, size_t n) {
  std::printf("%-28s", "operation (ms)");
  for (size_t i = 0; i < n; ++i) std::printf("  %7dT", threads[i]);
  std::printf("   speedup@8T\n");
}

}  // namespace
}  // namespace rudolf

int main() {
  using namespace rudolf;

  const size_t rows = bench::BenchRows(1000000);
  bench::Banner("parallel scaling (engine)",
                "row-block/rule-parallel evaluation keeps interactive "
                "latency flat as the stream grows");
  std::printf("relation: %zu rows; hardware threads: %u\n\n", rows,
              std::thread::hardware_concurrency());

  Scenario scenario = DefaultScenario(rows);
  Dataset dataset = GenerateDataset(scenario.options);
  Rng rng(11);
  RevealLabels(dataset.relation.get(), 0, rows, 0.9, 0.08, 0.004, &rng);
  RuleSet rules = SynthesizeInitialRules(dataset);
  std::printf("rule set: %zu rules\n\n", rules.size());

  const int kThreads[] = {1, 2, 4, 8};
  const size_t kNumConfigs = sizeof(kThreads) / sizeof(kThreads[0]);

  // One scanning evaluator per thread count, reused across repetitions.
  std::vector<RuleEvaluator> evals;
  evals.reserve(kNumConfigs);
  for (int t : kThreads) {
    evals.emplace_back(*dataset.relation, rows,
                       EvalOptions{t, /*use_index=*/false});
  }

  // Warmup: builds the shared scheduler and the per-evaluator mask caches,
  // and pins down the serial reference bitmap for the equivalence assertion.
  const Bitset reference = evals[0].EvalRuleSet(rules);
  for (size_t i = 1; i < kNumConfigs; ++i) {
    if (evals[i].EvalRuleSet(rules) != reference) {
      std::printf("FATAL: EvalRuleSet at %d threads diverges from serial\n",
                  kThreads[i]);
      return 1;
    }
  }

  PrintHeader(kThreads, kNumConfigs);

  bench::BenchJson json("parallel_scaling", rows);
  double rule_set_speedup_at_8 = 0.0;
  {
    std::printf("%-28s", "EvalRuleSet");
    double serial = 0.0;
    for (size_t i = 0; i < kNumConfigs; ++i) {
      double s = TimeMedian3([&] { evals[i].EvalRuleSet(rules); });
      if (i == 0) serial = s;
      std::printf("  %8.2f", s * 1e3);
      json.Metric("eval_rule_set_seconds_" + std::to_string(kThreads[i]) + "t", s);
      if (i + 1 == kNumConfigs) rule_set_speedup_at_8 = serial / s;
    }
    std::printf("   %8.2fx\n", rule_set_speedup_at_8);
    json.Metric("eval_rule_set_speedup_8t", rule_set_speedup_at_8);
  }

  {
    // The widest live rule dominates EvalRuleSet; time it alone to isolate
    // the row-block scan from the across-rule decomposition.
    Rule widest = rules.Get(rules.LiveIds().front());
    std::printf("%-28s", "EvalRule (single rule)");
    double serial = 0.0;
    for (size_t i = 0; i < kNumConfigs; ++i) {
      double s = TimeMedian3([&] { evals[i].EvalRule(widest); });
      if (i == 0) serial = s;
      std::printf("  %8.2f", s * 1e3);
      if (i + 1 == kNumConfigs) {
        std::printf("   %8.2fx\n", serial / s);
        json.Metric("eval_rule_speedup_8t", serial / s);
      }
    }
  }

  {
    std::printf("%-28s", "CaptureTracker build");
    double serial = 0.0;
    for (size_t i = 0; i < kNumConfigs; ++i) {
      double s = TimeMedian3([&] {
        CaptureTracker tracker(*dataset.relation, rules, rows,
                               EvalOptions{kThreads[i]});
        (void)tracker.TotalCounts();
      });
      if (i == 0) serial = s;
      std::printf("  %8.2f", s * 1e3);
      if (i + 1 == kNumConfigs) {
        std::printf("   %8.2fx\n", serial / s);
        json.Metric("tracker_build_speedup_8t", serial / s);
      }
    }
  }
  json.Write();

  std::printf("\n");
  bench::ShapeCheck("parallel results bit-identical to serial", true);
  // Speedup only materializes with real cores; on a 1-core host every
  // configuration degenerates to ~1x and the check reports the hardware.
  if (std::thread::hardware_concurrency() >= 8) {
    bench::ShapeCheck("EvalRuleSet speedup at 8 threads >= 2.5x",
                      rule_set_speedup_at_8 >= 2.5);
  } else {
    std::printf(
        "[shape-check] EvalRuleSet speedup at 8 threads >= 2.5x: SKIPPED "
        "(%u hardware threads)\n",
        std::thread::hardware_concurrency());
  }
  return 0;
}
