// Serial-equivalence property tests for the parallel evaluation engine:
// every parallel decomposition (rules across the pool, row blocks of the
// columnar scan, clustering points) must produce BIT-IDENTICAL results to
// the serial path — the refinement loop's proposals, and therefore the whole
// simulated expert interaction, may not depend on the thread count.
//
// This binary is also the primary TSan target: the README's
// RUDOLF_SANITIZE=thread invocation runs it to race-check the concurrency.

#include <gtest/gtest.h>

#include "cluster/strategy.h"
#include "core/capture_tracker.h"
#include "core/session.h"
#include "expert/oracle_expert.h"
#include "rules/evaluator.h"
#include "util/random.h"
#include "workload/generator.h"
#include "workload/initial_rules.h"
#include "workload/scenarios.h"

namespace rudolf {
namespace {

const int kThreadCounts[] = {2, 4, 8};

// 40,000 rows: below the evaluator's fan-out threshold (65,536 rows), so
// the suites on it run their evaluations inline; LargeDataset() is the one
// whose scans and batches fan out.
const Dataset& BlockDataset() {
  static const Dataset* ds = [] {
    Scenario s = TinyScenario();
    s.options.num_transactions = 40000;
    auto* d = new Dataset(GenerateDataset(s.options));
    Rng rng(11);
    RevealLabels(d->relation.get(), 0, 40000, 0.9, 0.08, 0.004, &rng);
    return d;
  }();
  return *ds;
}

// Small dataset for the (expensive) end-to-end Refine equivalence runs.
const Dataset& SessionDataset() {
  static const Dataset* ds = [] {
    Scenario s = TinyScenario();
    s.options.num_transactions = 1500;
    auto* d = new Dataset(GenerateDataset(s.options));
    Rng rng(23);
    RevealLabels(d->relation.get(), 0, 1500, 0.9, 0.05, 0.003, &rng);
    return d;
  }();
  return *ds;
}

// A dataset above the evaluator's fan-out threshold (more than 65,536
// rows): at more than one thread its scans split into 65,536-row blocks and
// its sessions' rankings score on the scheduler.
const Dataset& LargeDataset() {
  static const Dataset* ds = [] {
    Scenario s = TinyScenario();
    s.options.num_transactions = 70000;
    auto* d = new Dataset(GenerateDataset(s.options));
    Rng rng(29);
    RevealLabels(d->relation.get(), 0, 70000, 0.9, 0.05, 0.003, &rng);
    return d;
  }();
  return *ds;
}

// Draws a random syntactically valid rule over the credit-card schema
// (same construction as property_test.cc).
Rule RandomRule(const Dataset& ds, Rng* rng) {
  const Schema& schema = *ds.cc.schema;
  Rule rule = Rule::Trivial(schema);
  for (size_t i = 0; i < schema.arity(); ++i) {
    if (rng->Bernoulli(0.45)) continue;
    const AttributeDef& def = schema.attribute(i);
    if (def.kind == AttrKind::kNumeric) {
      bool clock = def.display == NumericDisplay::kClock;
      int64_t a = rng->UniformInt(0, clock ? 1000 : 1200);
      int64_t b = a + rng->UniformInt(0, clock ? 1439 - a : 400);
      rule.set_condition(i, Condition::MakeNumeric({a, b}));
    } else {
      ConceptId c = static_cast<ConceptId>(
          rng->UniformInt(0, static_cast<int64_t>(def.ontology->size()) - 1));
      rule.set_condition(i, Condition::MakeCategorical(c));
    }
  }
  return rule;
}

RuleSet RandomRuleSet(const Dataset& ds, Rng* rng, int n) {
  RuleSet rules;
  for (int i = 0; i < n; ++i) rules.AddRule(RandomRule(ds, rng));
  return rules;
}

class ParallelEquivalence : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// With the index on, EvalRule's condition extractions fan out; with it off,
// the scan's row blocks do.
TEST_P(ParallelEquivalence, EvalRuleMatchesSerialAcrossThreadCounts) {
  const Dataset& ds = LargeDataset();
  Rng rng(GetParam() ^ 0x0B10C);
  for (bool use_index : {true, false}) {
    RuleEvaluator serial(*ds.relation, static_cast<size_t>(-1),
                         EvalOptions{1, use_index});
    for (int i = 0; i < 6; ++i) {
      Rule rule = RandomRule(ds, &rng);
      Bitset expected = serial.EvalRule(rule);
      for (int threads : kThreadCounts) {
        RuleEvaluator parallel(*ds.relation, static_cast<size_t>(-1),
                               EvalOptions{threads, use_index});
        EXPECT_EQ(parallel.FansOut(), parallel.num_threads() > 1);
        EXPECT_EQ(parallel.EvalRule(rule), expected)
            << threads << " threads, index " << use_index << ", rule "
            << rule.ToString(*ds.cc.schema);
      }
    }
  }
}

TEST_P(ParallelEquivalence, IndexedEvalMatchesScanAcrossThreadCounts) {
  // The condition-cached path must be bit-identical to the pure columnar
  // scan (use_index = false) at every thread count — including repeated
  // evaluations, where the second pass is served from the bitmap cache.
  if (!ResolveUseIndex(true)) GTEST_SKIP() << "RUDOLF_INDEX=0 turns the cache off";
  const Dataset& ds = BlockDataset();
  Rng rng(GetParam() ^ 0x1DE);
  RuleEvaluator scan(*ds.relation, static_cast<size_t>(-1),
                     EvalOptions{1, /*use_index=*/false});
  for (int i = 0; i < 6; ++i) {
    Rule rule = RandomRule(ds, &rng);
    Bitset expected = scan.EvalRule(rule);
    for (int threads : {1, 2, 4, 8}) {
      RuleEvaluator indexed(*ds.relation, static_cast<size_t>(-1),
                            EvalOptions{threads, /*use_index=*/true});
      EXPECT_EQ(indexed.EvalRule(rule), expected)
          << threads << " threads, rule " << rule.ToString(*ds.cc.schema);
      const ConditionCacheStats first = indexed.cache_stats();
      EXPECT_EQ(indexed.EvalRule(rule), expected)
          << threads << " threads (cached), rule " << rule.ToString(*ds.cc.schema);
      EXPECT_EQ(indexed.cache_stats().misses, first.misses) << threads << " threads";
    }
  }
}

TEST_P(ParallelEquivalence, IndexedEvalRulesMatchesScan) {
  const Dataset& ds = BlockDataset();
  Rng rng(GetParam() ^ 0xF00D);
  RuleSet rules = RandomRuleSet(ds, &rng, 7);
  std::vector<RuleId> ids = rules.LiveIds();
  RuleEvaluator scan(*ds.relation, static_cast<size_t>(-1),
                     EvalOptions{1, /*use_index=*/false});
  std::vector<Bitset> expected = scan.EvalRules(rules, ids);
  for (int threads : {1, 4}) {
    RuleEvaluator indexed(*ds.relation, static_cast<size_t>(-1),
                          EvalOptions{threads, /*use_index=*/true});
    EXPECT_EQ(indexed.EvalRules(rules, ids), expected) << threads << " threads";
    EXPECT_EQ(indexed.EvalRuleSet(rules), scan.EvalRuleSet(rules))
        << threads << " threads";
  }
}

TEST_P(ParallelEquivalence, EvalRuleMatchesOnUnalignedPrefix) {
  const Dataset& ds = LargeDataset();
  Rng rng(GetParam() ^ 0xA117);
  // A prefix above the fan-out threshold that is neither block- nor
  // word-aligned: the final short block and padding-word handling must
  // still agree with the serial path.
  const size_t prefix = 69007;
  for (bool use_index : {true, false}) {
    RuleEvaluator serial(*ds.relation, prefix, EvalOptions{1, use_index});
    for (int i = 0; i < 4; ++i) {
      Rule rule = RandomRule(ds, &rng);
      Bitset expected = serial.EvalRule(rule);
      for (int threads : kThreadCounts) {
        RuleEvaluator parallel(*ds.relation, prefix,
                               EvalOptions{threads, use_index});
        EXPECT_EQ(parallel.EvalRule(rule), expected)
            << threads << " threads, index " << use_index;
      }
    }
  }
}

// With the index on, the union ORs one batch's captures block by block; with
// it off, every block scans every rule (EvalRuleSetRange).
TEST_P(ParallelEquivalence, EvalRuleSetMatchesSerialAcrossThreadCounts) {
  const Dataset& ds = LargeDataset();
  Rng rng(GetParam() ^ 0x5E7);
  RuleSet rules = RandomRuleSet(ds, &rng, 7);
  rules.RemoveRule(rules.LiveIds()[2]);
  RuleEvaluator serial(*ds.relation, static_cast<size_t>(-1),
                       EvalOptions{1, /*use_index=*/false});
  Bitset expected = serial.EvalRuleSet(rules);
  LabelCounts expected_counts = serial.CountsVisible(expected);
  for (bool use_index : {true, false}) {
    for (int threads : kThreadCounts) {
      RuleEvaluator parallel(*ds.relation, static_cast<size_t>(-1),
                             EvalOptions{threads, use_index});
      Bitset got = parallel.EvalRuleSet(rules);
      EXPECT_EQ(got, expected) << threads << " threads, index " << use_index;
      EXPECT_EQ(parallel.CountsVisible(got), expected_counts);
    }
  }
}

TEST_P(ParallelEquivalence, CaptureTrackerMatchesSerialAcrossThreadCounts) {
  const Dataset& ds = BlockDataset();
  Rng rng(GetParam() ^ 0xCA97);
  RuleSet rules = RandomRuleSet(ds, &rng, 5);
  CaptureTracker serial(*ds.relation, rules);
  for (int threads : kThreadCounts) {
    CaptureTracker parallel(*ds.relation, rules, static_cast<size_t>(-1),
                            EvalOptions{threads});
    EXPECT_EQ(parallel.TotalCounts(), serial.TotalCounts()) << threads;
    EXPECT_EQ(parallel.UnionCapture(), serial.UnionCapture()) << threads;
    for (RuleId id : rules.LiveIds()) {
      EXPECT_EQ(parallel.RuleCapture(id), serial.RuleCapture(id))
          << threads << " threads, rule " << id;
    }
    for (size_t r = 0; r < parallel.prefix_rows(); r += 97) {
      ASSERT_EQ(parallel.CoverCount(r), serial.CoverCount(r)) << "row " << r;
    }
  }
}

TEST_P(ParallelEquivalence, ClusteringMatchesSerialAcrossThreadCounts) {
  const Dataset& ds = BlockDataset();
  Rng rng(GetParam() ^ 0xC105);
  // A few thousand random rows: enough to engage the leader batch path.
  std::vector<size_t> rows;
  for (int i = 0; i < 3000; ++i) {
    rows.push_back(static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(ds.relation->NumRows()) - 1)));
  }
  for (ClusteringStrategy strategy :
       {ClusteringStrategy::kLeader, ClusteringStrategy::kKMedoids}) {
    ClusteringOptions options;
    options.strategy = strategy;
    options.seed = GetParam();
    options.num_threads = 1;
    std::vector<std::vector<size_t>> expected =
        ClusterRows(*ds.relation, rows, options);
    for (int threads : kThreadCounts) {
      options.num_threads = threads;
      EXPECT_EQ(ClusterRows(*ds.relation, rows, options), expected)
          << ClusteringStrategyName(strategy) << " at " << threads
          << " threads";
    }
  }
}

TEST_P(ParallelEquivalence, RefineOutcomeMatchesSerial) {
  // One full refinement session per thread count, and one on the scan
  // path, each from an identical starting rule set and an identically
  // seeded expert. Everything the session produces — the final rules, the
  // edit log, the interaction counters — must be independent of the thread
  // count and of the condition index. The large dataset runs at 1 and 4
  // threads, with the index on and off: at 4 threads its proposal scoring
  // fans out.
  auto run = [&](const Dataset& ds, int threads, bool use_index = true) {
    const size_t prefix = ds.relation->NumRows();
    SessionOptions options;
    options.eval.num_threads = threads;
    options.eval.use_index = use_index;
    RuleSet rules = SynthesizeInitialRules(ds);
    std::unique_ptr<OracleExpert> expert = MakeDomainExpert(ds, GetParam());
    EditLog log;
    RefinementSession session(*ds.relation, prefix, options);
    SessionStats stats = session.Refine(&rules, expert.get(), &log);
    CaptureTracker tracker(*ds.relation, rules, prefix,
                           EvalOptions{threads});
    return std::make_tuple(rules.ToString(*ds.cc.schema), log.size(),
                           stats.rounds, stats.edits,
                           stats.generalize.proposals,
                           stats.specialize.proposals,
                           tracker.TotalCounts());
  };

  const Dataset& small = SessionDataset();
  auto expected = run(small, 1);
  // Guard against vacuous equivalence: the scenario must actually drive
  // proposals through the engines (it does — imperfect initial rules plus
  // an obsolete rule leave real refinement work).
  EXPECT_GT(std::get<4>(expected) + std::get<5>(expected), 0u);
  for (int threads : kThreadCounts) {
    EXPECT_EQ(run(small, threads), expected) << threads << " threads";
  }
  EXPECT_EQ(run(small, 1, false), expected) << "scan";

  const Dataset& large = LargeDataset();
  auto expected_large = run(large, 1);
  EXPECT_GT(std::get<4>(expected_large) + std::get<5>(expected_large), 0u);
  EXPECT_EQ(run(large, 4), expected_large) << "large, 4 threads";
  EXPECT_EQ(run(large, 1, false), expected_large) << "large, scan";
  EXPECT_EQ(run(large, 4, false), expected_large) << "large, scan, 4 threads";
}

}  // namespace
}  // namespace rudolf
