// Streaming refinement rounds: the cost of bringing the capture tracker to a
// grown visible prefix, incrementally (CaptureTracker::ExtendPrefix — the
// persistent-session path) vs from scratch (a fresh tracker per round — what
// every round paid before the incremental append path existed).
//
// Protocol: start with a warm tracker over a large prefix, then advance in
// fixed-size batches of newly arrived (and newly labeled) rows. Each round
// measures (a) extending the persistent tracker over just the batch and
// (b) rebuilding a tracker — condition cache, capture bitmaps, cover
// counts — over the whole new prefix. After every round the
// two trackers are asserted bit-identical: every live rule's capture bitmap,
// every row's cover count, and the maintained label totals.
//
//   RUDOLF_BENCH_N=...       rows (default 160,000 → 100k start, 1k batches)
//   RUDOLF_THREADS / RUDOLF_INDEX  override the eval config
//   RUDOLF_BENCH_JSON_DIR=.. where BENCH_streaming_rounds.json lands

#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "core/capture_tracker.h"
#include "obs/trace.h"
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

// Bit-identity of the persistent tracker against a fresh rebuild: capture
// bitmaps per live rule, per-row cover counts, and label totals.
bool SameTracker(const CaptureTracker& extended, const CaptureTracker& fresh,
                 const RuleSet& rules) {
  if (extended.prefix_rows() != fresh.prefix_rows()) return false;
  for (RuleId id : rules.LiveIds()) {
    if (!(extended.RuleCapture(id) == fresh.RuleCapture(id))) return false;
  }
  for (size_t r = 0; r < fresh.prefix_rows(); ++r) {
    if (extended.CoverCount(r) != fresh.CoverCount(r)) return false;
  }
  return extended.TotalCounts() == fresh.TotalCounts();
}

}  // namespace
}  // namespace rudolf

int main() {
  using namespace rudolf;

  const size_t rows = bench::BenchRows(160000);
  bench::Banner(
      "streaming rounds (incremental append path)",
      "refinement stays interactive as the stream grows — advancing the "
      "visible prefix by a batch must cost O(batch), not O(prefix)");

  // Default shape: 100k-row starting prefix advanced in 1k-row batches (the
  // acceptance configuration). Smaller RUDOLF_BENCH_N values (smoke runs)
  // scale both down proportionally.
  size_t start_prefix;
  size_t batch;
  if (rows >= 120000) {
    start_prefix = 100000;
    batch = 1000;
  } else {
    start_prefix = rows * 5 / 8;
    batch = (rows - start_prefix) / 10;
    if (batch == 0) batch = 1;
  }
  size_t num_rounds = (rows - start_prefix) / batch;
  if (num_rounds > 20) num_rounds = 20;
  std::printf("relation: %zu rows; start prefix %zu; %zu rounds of %zu-row "
              "batches\n\n",
              rows, start_prefix, num_rounds, batch);
  if (num_rounds == 0) {
    std::printf("FATAL: RUDOLF_BENCH_N too small for even one batch\n");
    return 1;
  }

  Scenario scenario = DefaultScenario(rows);
  Dataset dataset = GenerateDataset(scenario.options);
  Relation* relation = dataset.relation.get();
  Rng rng(17);
  RevealLabels(relation, 0, start_prefix, 0.9, 0.08, 0.004, &rng);
  RuleSet rules = SynthesizeInitialRules(dataset);
  std::printf("rules live: %zu\n\n", rules.size());

  EvalOptions eval;  // defaults; RUDOLF_THREADS / RUDOLF_INDEX override
  CaptureTracker persistent(*relation, rules, start_prefix, eval);

  std::printf("%5s  %9s  %12s  %12s  %9s\n", "round", "prefix", "extend (ms)",
              "rebuild (ms)", "speedup");

  double extend_total = 0.0;
  double rebuild_total = 0.0;
  size_t prefix = start_prefix;
  for (size_t round = 1; round <= num_rounds; ++round) {
    // Each bench round plays one streaming-session round; trace it under the
    // same span name RefinementSession uses so RUDOLF_TRACE output lines up.
    RUDOLF_SPAN("session.round");
    size_t new_prefix = prefix + batch;
    // The batch "arrives": its labels get reported. Only rows beyond the
    // tracker's prefix change, so no label-fixup notifications are needed.
    RevealLabels(relation, prefix, new_prefix, 0.9, 0.08, 0.004, &rng);

    auto a = Clock::now();
    persistent.ExtendPrefix(new_prefix);
    auto b = Clock::now();
    CaptureTracker fresh(*relation, rules, new_prefix, eval);
    auto c = Clock::now();

    double extend_s = Seconds(a, b);
    double rebuild_s = Seconds(b, c);
    extend_total += extend_s;
    rebuild_total += rebuild_s;

    if (!SameTracker(persistent, fresh, rules)) {
      std::printf("FATAL: extended tracker diverges from rebuild at round "
                  "%zu (prefix %zu)\n",
                  round, new_prefix);
      return 1;
    }

    std::printf("%5zu  %9zu  %12.3f  %12.3f  %8.2fx\n", round, new_prefix,
                extend_s * 1e3, rebuild_s * 1e3,
                extend_s > 0.0 ? rebuild_s / extend_s : 0.0);
    prefix = new_prefix;
  }

  double speedup = extend_total > 0.0 ? rebuild_total / extend_total : 0.0;
  std::printf("\ntotals: extend %.3f s, rebuild %.3f s, per-round speedup "
              "%.2fx\n\n",
              extend_total, rebuild_total, speedup);

  bench::ShapeCheck("extended tracker bit-identical to rebuild every round",
                    true);
  bench::ShapeCheck("extend >= 10x faster per round than rebuild", speedup >= 10.0);

  bench::BenchJson json("streaming_rounds", rows);
  json.Metric("start_prefix", static_cast<double>(start_prefix));
  json.Metric("batch_rows", static_cast<double>(batch));
  json.Metric("rounds", static_cast<double>(num_rounds));
  json.Metric("extend_total_s", extend_total);
  json.Metric("rebuild_total_s", rebuild_total);
  json.Metric("extend_mean_round_s", extend_total / static_cast<double>(num_rounds));
  json.Metric("rebuild_mean_round_s", rebuild_total / static_cast<double>(num_rounds));
  json.Metric("speedup", speedup);
  json.Write();
  return 0;
}
