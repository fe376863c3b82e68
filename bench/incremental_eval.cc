// Scan vs condition-indexed evaluation on the specialize-heavy inner loop:
// repeated SpecializationEngine::RankSplits sweeps over the captured
// legitimate tuples of a large stream. Each sweep evaluates every split
// candidate of every capturing rule; the indexed path serves the arity−1
// unchanged conditions from the bitmap cache and pays one narrowed-interval
// extraction, where the scan path re-reads the column prefix per candidate.
//
// Correctness is asserted while timing: every proposal's ranking metadata
// and the replacement capture bitmaps themselves must be bit-identical
// between the scan and indexed paths, at 1 and at 8 threads.
//
//   RUDOLF_BENCH_N=...  rows (default 1,000,000)
//   RUDOLF_THREADS / RUDOLF_INDEX override the measured configs — unset
//   them when running this bench.

#include <chrono>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/capture_tracker.h"
#include "core/specialize.h"
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

struct Config {
  const char* name;
  EvalOptions eval;
};

}  // namespace
}  // namespace rudolf

int main() {
  using namespace rudolf;

  const size_t rows = bench::BenchRows(1000000);
  bench::Banner("incremental evaluation (condition index)",
                "proposal scoring must stay interactive (\"at most one "
                "second\") as the stream grows — candidate rules that share "
                "all but one condition must not cost a full re-scan");
  std::printf("relation: %zu rows\n\n", rows);

  Scenario scenario = DefaultScenario(rows);
  Dataset dataset = GenerateDataset(scenario.options);
  Rng rng(11);
  RevealLabels(dataset.relation.get(), 0, rows, 0.9, 0.08, 0.004, &rng);
  RuleSet rules = SynthesizeInitialRules(dataset);

  const Config kConfigs[] = {
      {"scan @1T", EvalOptions{1, false}},
      {"indexed @1T", EvalOptions{1, true}},
      {"scan @8T", EvalOptions{8, false}},
      {"indexed @8T", EvalOptions{8, true}},
  };
  const size_t kNumConfigs = sizeof(kConfigs) / sizeof(kConfigs[0]);

  std::vector<std::unique_ptr<CaptureTracker>> trackers;
  for (const Config& c : kConfigs) {
    trackers.push_back(std::make_unique<CaptureTracker>(*dataset.relation,
                                                        rules, rows, c.eval));
  }

  // The specialize-heavy workload: every (captured legitimate tuple,
  // capturing rule) pair up to a fixed budget — what one Algorithm 2 pass
  // ranks before consulting the expert.
  SpecializationEngine engine(*dataset.relation, SpecializeOptions{});
  std::vector<std::pair<RuleId, size_t>> work;
  const CaptureTracker& probe = *trackers[0];
  for (size_t r = 0; r < rows && work.size() < 16; ++r) {
    if (dataset.relation->VisibleLabel(r) != Label::kLegitimate) continue;
    if (!probe.IsCovered(r)) continue;
    for (RuleId id : rules.LiveIds()) {
      if (probe.RuleCapture(id).Test(r)) work.emplace_back(id, r);
    }
  }
  std::printf("workload: %zu (rule, legit tuple) split rankings per sweep; "
              "%zu rules live\n\n",
              work.size(), rules.size());
  if (work.empty()) {
    std::printf("FATAL: no captured legitimate tuples to split on\n");
    return 1;
  }

  auto sweep = [&](const CaptureTracker& tracker) {
    for (const auto& [id, row] : work) {
      engine.RankSplits(tracker, id, row);
    }
  };

  // Warmup every config (builds pools, attribute indexes and caches) and
  // assert the scan/indexed equivalence on the full workload: identical
  // proposal rankings and bit-identical replacement captures.
  for (const auto& [id, row] : work) {
    std::vector<SplitProposal> expected =
        engine.RankSplits(*trackers[0], id, row);
    std::vector<Bitset> expected_captures;
    for (const SplitProposal& p : expected) {
      for (const Bitset& b : trackers[0]->EvalMany(p.replacements)) {
        expected_captures.push_back(b);
      }
    }
    for (size_t i = 1; i < kNumConfigs; ++i) {
      std::vector<SplitProposal> got =
          engine.RankSplits(*trackers[i], id, row);
      bool same = got.size() == expected.size();
      for (size_t p = 0; same && p < got.size(); ++p) {
        same = got[p].attribute == expected[p].attribute &&
               got[p].delta == expected[p].delta &&
               got[p].benefit == expected[p].benefit &&
               got[p].replacement_counts == expected[p].replacement_counts;
      }
      std::vector<Bitset> captures;
      for (const SplitProposal& p : got) {
        for (Bitset& b : trackers[i]->EvalMany(p.replacements)) {
          captures.push_back(std::move(b));
        }
      }
      if (!same || captures != expected_captures) {
        std::printf("FATAL: %s diverges from %s on rule %u, row %zu\n",
                    kConfigs[i].name, kConfigs[0].name, id, row);
        return 1;
      }
    }
  }

  bench::BenchJson json("incremental_eval", rows);
  std::printf("%-14s  %9s  %9s\n", "config", "sweep (s)", "vs scan@1T");
  double scan1 = 0.0, indexed1 = 0.0;
  for (size_t i = 0; i < kNumConfigs; ++i) {
    double s = TimeMedian3([&] { sweep(*trackers[i]); });
    if (i == 0) scan1 = s;
    if (i == 1) indexed1 = s;
    std::printf("%-14s  %9.3f  %8.2fx\n", kConfigs[i].name, s, scan1 / s);
    json.Metric("sweep_s_" + std::to_string(i), s);
  }

  std::printf("\n");
  bench::ShapeCheck("indexed and scan captures bit-identical at 1T and 8T",
                    true);
  bench::ShapeCheck("indexed eval >= 5x faster than scan on split ranking",
                    indexed1 > 0.0 && scan1 / indexed1 >= 5.0);
  json.Metric("scan_1t_s", scan1);
  json.Metric("indexed_1t_s", indexed1);
  json.Metric("indexed_speedup", indexed1 > 0.0 ? scan1 / indexed1 : 0.0);
  json.Write();
  return 0;
}
