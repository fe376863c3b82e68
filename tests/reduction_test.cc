// The NP-hardness constructions of Theorems 4.1 and 4.5, materialized as
// actual transaction relations and solved by (a) the exact hitting-set
// solver via the paper's reduction, and (b) the heuristic engines. The
// tests verify both directions of the reductions on the paper's running
// instance (U = {A1..A5}, s1 = {A1,A2,A3}, s2 = {A2,A3,A4,A5},
// s3 = {A4,A5}, minimum hitting set {A2, A4}) and on random instances.

#include <gtest/gtest.h>

#include "core/generalize.h"
#include "core/session.h"
#include "core/specialize.h"
#include "exact/hitting_set.h"
#include "expert/scripted_expert.h"
#include "rules/evaluator.h"
#include "util/random.h"

namespace rudolf {
namespace {

// Builds the reduction relation: one 0/1 numeric attribute per universe
// element; a characteristic tuple per set (0 where the element is in the
// set); plus the all-ones tuple labeled `ones_label`.
struct ReductionInstance {
  std::shared_ptr<const Schema> schema;
  std::shared_ptr<Relation> relation;
  size_t ones_row = 0;
};

ReductionInstance BuildReduction(const HittingSetInstance& hs,
                                 Label characteristic_label, Label ones_label) {
  ReductionInstance out;
  auto schema = std::make_shared<Schema>();
  for (size_t e = 0; e < hs.universe_size; ++e) {
    Status st = schema->AddNumeric("A" + std::to_string(e + 1));
    EXPECT_TRUE(st.ok());
  }
  out.schema = schema;
  out.relation = std::make_shared<Relation>(schema);
  for (const auto& s : hs.sets) {
    Tuple t(hs.universe_size, 1);
    for (size_t e : s) t[e] = 0;
    EXPECT_TRUE(out.relation
                    ->AppendRow(t, characteristic_label, characteristic_label)
                    .ok());
  }
  Tuple ones(hs.universe_size, 1);
  out.ones_row = out.relation->NumRows();
  EXPECT_TRUE(out.relation->AppendRow(ones, ones_label, ones_label).ok());
  return out;
}

// The rule "A_i = 1 for every i in H" of the Theorem 4.1 forward direction.
Rule HittingSetRule(const Schema& schema, const std::vector<size_t>& hitting) {
  Rule rule = Rule::Trivial(schema);
  for (size_t e : hitting) {
    rule.set_condition(e, Condition::MakeNumeric(Interval::Point(1)));
  }
  return rule;
}

HittingSetInstance PaperInstance() {
  HittingSetInstance hs;
  hs.universe_size = 5;
  hs.sets = {{0, 1, 2}, {1, 2, 3, 4}, {3, 4}};
  return hs;
}

TEST(Theorem41, MinimumHittingSetYieldsPerfectRule) {
  HittingSetInstance hs = PaperInstance();
  // I: unlabeled characteristic tuples; I': one fraudulent all-ones tuple.
  ReductionInstance inst =
      BuildReduction(hs, Label::kUnlabeled, Label::kFraud);
  std::vector<size_t> optimal = MinimumHittingSet(hs);
  EXPECT_EQ(optimal.size(), 2u);  // the paper's {A2, A4}
  Rule rule = HittingSetRule(*inst.schema, optimal);
  // Forward direction: captures the fraud and none of the unlabeled rows.
  EXPECT_TRUE(rule.MatchesRow(*inst.relation, inst.ones_row));
  for (size_t r = 0; r < inst.ones_row; ++r) {
    EXPECT_FALSE(rule.MatchesRow(*inst.relation, r)) << r;
  }
}

TEST(Theorem41, NonHittingSetFailsToExcludeSomeTuple) {
  // Converse intuition: if H misses a set, the corresponding characteristic
  // tuple satisfies every A_i = 1 condition and is wrongly captured.
  HittingSetInstance hs = PaperInstance();
  ReductionInstance inst = BuildReduction(hs, Label::kUnlabeled, Label::kFraud);
  std::vector<size_t> not_hitting = {0};  // misses s3 = {A4, A5}
  ASSERT_FALSE(IsHittingSet(hs, not_hitting));
  Rule rule = HittingSetRule(*inst.schema, not_hitting);
  bool captured_unlabeled = false;
  for (size_t r = 0; r < inst.ones_row; ++r) {
    captured_unlabeled |= rule.MatchesRow(*inst.relation, r);
  }
  EXPECT_TRUE(captured_unlabeled);
}

TEST(Theorem41, GeneralizationEngineSolvesTheInstanceFeasibly) {
  HittingSetInstance hs = PaperInstance();
  ReductionInstance inst = BuildReduction(hs, Label::kUnlabeled, Label::kFraud);
  RuleSet rules;  // Φ initially empty, as in the proof
  CaptureTracker tracker(*inst.relation, rules);
  GeneralizeOptions options;
  GeneralizationEngine engine(*inst.relation, options);
  ScriptedExpert expert;
  EditLog log;
  engine.Run(&tracker, &expert, &log);
  rules = tracker.rules();
  // Feasible: the fraud is captured and no unlabeled tuple is.
  EXPECT_TRUE(rules.CapturesRow(*inst.relation, inst.ones_row));
  for (size_t r = 0; r < inst.ones_row; ++r) {
    EXPECT_FALSE(rules.CapturesRow(*inst.relation, r)) << r;
  }
  // The heuristic may use more conditions than the optimum — never fewer.
  size_t engine_conditions = 0;
  for (RuleId id : rules.LiveIds()) {
    engine_conditions += rules.Get(id).NumNonTrivial(*inst.schema);
  }
  EXPECT_GE(engine_conditions, MinimumHittingSet(hs).size());
}

TEST(Theorem45, MinimumHittingSetYieldsMinimalRuleSet) {
  HittingSetInstance hs = PaperInstance();
  // I: fraudulent characteristic tuples; I': one legitimate all-ones tuple.
  ReductionInstance inst = BuildReduction(hs, Label::kFraud, Label::kLegitimate);
  std::vector<size_t> optimal = MinimumHittingSet(hs);
  // Forward direction of the proof: one rule per element of H, each a copy
  // of the trivial rule with the condition a_i = 0.
  RuleSet rules;
  for (size_t e : optimal) {
    Rule r = Rule::Trivial(*inst.schema);
    r.set_condition(e, Condition::MakeNumeric(Interval::Point(0)));
    rules.AddRule(r);
  }
  RuleEvaluator eval(*inst.relation);
  Bitset captured = eval.EvalRuleSet(rules);
  for (size_t r = 0; r < inst.ones_row; ++r) {
    EXPECT_TRUE(captured.Test(r)) << "fraud tuple " << r << " lost";
  }
  EXPECT_FALSE(captured.Test(inst.ones_row));
}

TEST(Theorem45, OneSplitPassExcludesTheLegitimateTuple) {
  HittingSetInstance hs = PaperInstance();
  ReductionInstance inst = BuildReduction(hs, Label::kFraud, Label::kLegitimate);
  // Φ: the single all-⊤ rule of the proof.
  RuleSet rules;
  rules.AddRule(Rule::Trivial(*inst.schema));
  CaptureTracker tracker(*inst.relation, rules);
  SpecializeOptions options;
  SpecializationEngine engine(*inst.relation, options);
  ScriptedExpert expert;
  EditLog log;
  engine.Run(&tracker, &expert, &log);
  rules = tracker.rules();
  // A single split on one attribute must exclude the legitimate tuple but
  // cannot keep every fraud on this adversarial instance (the proof's
  // solution needs one rule per hitting-set element) — that recovery is the
  // job of the next generalization round.
  EXPECT_FALSE(rules.CapturesRow(*inst.relation, inst.ones_row));
  size_t kept = 0;
  for (size_t r = 0; r < inst.ones_row; ++r) {
    kept += rules.CapturesRow(*inst.relation, r) ? 1 : 0;
  }
  EXPECT_GT(kept, 0u);
  EXPECT_LT(kept, inst.ones_row);
}

TEST(Theorem45, SessionInterplayReachesAFeasibleSolution) {
  HittingSetInstance hs = PaperInstance();
  ReductionInstance inst = BuildReduction(hs, Label::kFraud, Label::kLegitimate);
  RuleSet rules;
  rules.AddRule(Rule::Trivial(*inst.schema));
  SessionOptions options;
  options.max_rounds = 8;
  RefinementSession session(*inst.relation, options);
  ScriptedExpert expert;
  EditLog log;
  session.Refine(inst.relation->NumRows(), &rules, &expert, &log);
  // The generalize↔specialize interplay converges to the proof's shape:
  // all frauds captured, the legitimate tuple excluded, and at least as
  // many rules as the minimum hitting set.
  for (size_t r = 0; r < inst.ones_row; ++r) {
    EXPECT_TRUE(rules.CapturesRow(*inst.relation, r)) << r;
  }
  EXPECT_FALSE(rules.CapturesRow(*inst.relation, inst.ones_row));
  EXPECT_GE(rules.size(), MinimumHittingSet(hs).size());
}

TEST(Theorem45, EngineRuleCountTracksGreedyHittingSetOnRandomInstances) {
  Rng rng(4242);
  for (int trial = 0; trial < 10; ++trial) {
    HittingSetInstance hs;
    hs.universe_size = 6;
    int num_sets = static_cast<int>(rng.UniformInt(2, 5));
    for (int i = 0; i < num_sets; ++i) {
      std::vector<size_t> set;
      for (size_t e = 0; e < hs.universe_size; ++e) {
        if (rng.Bernoulli(0.4)) set.push_back(e);
      }
      if (set.empty()) set.push_back(static_cast<size_t>(rng.UniformInt(0, 5)));
      hs.sets.push_back(std::move(set));
    }
    ReductionInstance inst =
        BuildReduction(hs, Label::kFraud, Label::kLegitimate);
    RuleSet rules;
    rules.AddRule(Rule::Trivial(*inst.schema));
    SessionOptions options;
    options.max_rounds = 8;
    RefinementSession session(*inst.relation, options);
    ScriptedExpert expert;
    EditLog log;
    session.Refine(inst.relation->NumRows(), &rules, &expert, &log);
    // Always feasible…
    EXPECT_FALSE(rules.CapturesRow(*inst.relation, inst.ones_row));
    for (size_t r = 0; r < inst.ones_row; ++r) {
      EXPECT_TRUE(rules.CapturesRow(*inst.relation, r));
    }
    // …and never better than the optimum (Theorem 4.5's converse).
    EXPECT_GE(rules.size(), MinimumHittingSet(hs).size());
  }
}

}  // namespace
}  // namespace rudolf
