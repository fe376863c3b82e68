// Differential gate for the online serving path: CompiledRuleSet /
// ServingEngine per-transaction decisions must be BIT-IDENTICAL to the batch
// RuleEvaluator over randomized (rule set, tuple) pairs — including
// INT64_MIN/MAX sentinel edges, empty intervals (dead rules), all-trivial
// rules (always fire), DAG ontologies, and non-leaf stored concepts. The
// property suite alone covers > 100k randomized pairs.
//
// Alongside the hot-swap torture test this binary rides the TSan preset
// (suite names start with Serving).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/session.h"
#include "expert/scripted_expert.h"
#include "rules/evaluator.h"
#include "serving/compiled_rule_set.h"
#include "serving/serving_engine.h"
#include "util/random.h"
#include "workload/generator.h"
#include "workload/paper_example.h"
#include "workload/scenarios.h"

namespace rudolf {
namespace {

// ---------------------------------------------------------------------------
// Random universe generation: schemas with DAG ontologies, streams with
// sentinel-heavy numeric values and arbitrary (even non-leaf) stored
// concepts, rule sets with every edge shape the language allows.

std::shared_ptr<const Ontology> RandomOntology(Rng* rng, int concepts) {
  auto o = std::make_shared<Ontology>("ont", "Any");
  for (int i = 0; i < concepts; ++i) {
    std::vector<ConceptId> parents;
    parents.push_back(static_cast<ConceptId>(
        rng->UniformInt(0, static_cast<int64_t>(o->size()) - 1)));
    if (rng->Bernoulli(0.3)) {  // a DAG, not just a tree
      ConceptId p2 = static_cast<ConceptId>(
          rng->UniformInt(0, static_cast<int64_t>(o->size()) - 1));
      if (p2 != parents[0]) parents.push_back(p2);
    }
    auto added = o->AddConcept("c" + std::to_string(i), parents);
    EXPECT_TRUE(added.ok());
  }
  return o;
}

std::shared_ptr<const Schema> RandomSchema(Rng* rng) {
  auto schema = std::make_shared<Schema>();
  int numeric = static_cast<int>(rng->UniformInt(1, 3));
  int categorical = static_cast<int>(rng->UniformInt(0, 2));
  for (int i = 0; i < numeric; ++i) {
    EXPECT_TRUE(schema
                    ->AddNumeric("n" + std::to_string(i),
                                 rng->Bernoulli(0.25) ? NumericDisplay::kClock
                                                      : NumericDisplay::kPlain)
                    .ok());
  }
  for (int i = 0; i < categorical; ++i) {
    EXPECT_TRUE(schema
                    ->AddCategorical(
                        "g" + std::to_string(i),
                        RandomOntology(rng, static_cast<int>(rng->UniformInt(3, 14))))
                    .ok());
  }
  return schema;
}

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

CellValue RandomNumericValue(Rng* rng) {
  switch (rng->UniformInt(0, 9)) {
    case 0: return kMin;          // sentinel edges appear as real data
    case 1: return kMax;
    case 2: return kMin + rng->UniformInt(1, 4);
    case 3: return kMax - rng->UniformInt(1, 4);
    default: return rng->UniformInt(-120, 1200);
  }
}

Relation RandomRelation(std::shared_ptr<const Schema> schema, size_t rows,
                        Rng* rng) {
  Relation rel(schema);
  Tuple row(schema->arity());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t i = 0; i < schema->arity(); ++i) {
      const AttributeDef& def = schema->attribute(i);
      if (def.kind == AttrKind::kNumeric) {
        row[i] = RandomNumericValue(rng);
      } else {
        // Any valid concept id — inner concepts included, which the scan
        // treats by plain reachability; serving must agree.
        row[i] = rng->UniformInt(0, static_cast<int64_t>(def.ontology->size()) - 1);
      }
    }
    EXPECT_TRUE(rel.AppendRow(row).ok());
  }
  return rel;
}

Interval RandomInterval(Rng* rng) {
  switch (rng->UniformInt(0, 9)) {
    case 0: return Interval::Point(kMin);
    case 1: return Interval::Point(kMax);
    case 2: return Interval::AtMost(rng->UniformInt(-150, 1250));   // [MIN, x]
    case 3: return Interval::AtLeast(rng->UniformInt(-150, 1250));  // [x, MAX]
    case 4: return {rng->UniformInt(0, 600), rng->UniformInt(-600, -1)};  // empty
    case 5: return {kMin, kMin + rng->UniformInt(0, 8)};
    case 6: return {kMax - rng->UniformInt(0, 8), kMax};
    default: {
      int64_t a = rng->UniformInt(-150, 1250);
      return {a, a + rng->UniformInt(0, 500)};
    }
  }
}

Rule RandomRule(const Schema& schema, Rng* rng) {
  Rule rule = Rule::Trivial(schema);
  if (rng->Bernoulli(0.05)) return rule;  // always-true rule
  for (size_t i = 0; i < schema.arity(); ++i) {
    if (rng->Bernoulli(0.4)) continue;  // leave the condition trivial
    const AttributeDef& def = schema.attribute(i);
    if (def.kind == AttrKind::kNumeric) {
      rule.set_condition(i, Condition::MakeNumeric(RandomInterval(rng)));
    } else {
      ConceptId c = static_cast<ConceptId>(
          rng->UniformInt(0, static_cast<int64_t>(def.ontology->size()) - 1));
      rule.set_condition(i, Condition::MakeCategorical(c));
    }
  }
  return rule;
}

// ---------------------------------------------------------------------------
// The differential harness: serving decisions vs the batch scan evaluator
// (the definitional semantics) vs per-tuple RuleSet::CapturingRules.
// Returns the number of (rule set, tuple) pairs checked.

size_t CheckServingMatchesBatch(std::shared_ptr<const Schema> schema,
                                const Relation& rel, const RuleSet& rules) {
  const std::vector<RuleId> ids = rules.LiveIds();
  RuleEvaluator scan(rel, rel.NumRows(), EvalOptions{1, /*use_index=*/false});
  std::vector<Bitset> bitmaps = scan.EvalRules(rules, ids);

  ServingEngine engine(schema);
  auto compiled = engine.Publish(rules);
  EXPECT_EQ(compiled->epoch(), 1u);
  EXPECT_EQ(engine.current_epoch(), 1u);

  Decision decision;
  for (size_t r = 0; r < rel.NumRows(); ++r) {
    Tuple tuple = rel.GetRow(r);
    std::vector<RuleId> expected;
    for (size_t k = 0; k < ids.size(); ++k) {
      if (bitmaps[k].Test(r)) expected.push_back(ids[k]);
    }
    EXPECT_EQ(expected, rules.CapturingRules(*schema, tuple))
        << "batch bitmap vs definitional CapturingRules, row " << r;
    engine.Decide(tuple, &decision);
    EXPECT_EQ(decision.fired, expected) << "serving vs batch, row " << r;
    EXPECT_EQ(decision.flagged, !expected.empty()) << "row " << r;
    EXPECT_EQ(decision.epoch, 1u);
    if (::testing::Test::HasFailure()) return r + 1;  // don't spam 4000 rows
  }
  return rel.NumRows();
}

// ---------------------------------------------------------------------------

TEST(ServingEquivalence, SentinelAndEmptyEdgesExplicit) {
  auto schema = std::make_shared<Schema>();
  ASSERT_TRUE(schema->AddNumeric("amount").ok());

  RuleSet rules;
  RuleId at_min = rules.AddRule([&] {
    Rule r = Rule::Trivial(*schema);
    r.set_condition(0, Condition::MakeNumeric(Interval::Point(kMin)));
    return r;
  }());
  RuleId at_max = rules.AddRule([&] {
    Rule r = Rule::Trivial(*schema);
    r.set_condition(0, Condition::MakeNumeric(Interval::Point(kMax)));
    return r;
  }());
  RuleId trivial = rules.AddRule(Rule::Trivial(*schema));  // [MIN, MAX]
  RuleId dead = rules.AddRule([&] {
    Rule r = Rule::Trivial(*schema);
    r.set_condition(0, Condition::MakeNumeric({5, 4}));  // empty: never fires
    return r;
  }());
  RuleId mid = rules.AddRule([&] {
    Rule r = Rule::Trivial(*schema);
    r.set_condition(0, Condition::MakeNumeric({0, 10}));
    return r;
  }());

  ServingEngine engine(schema);
  auto compiled = engine.Publish(rules);
  EXPECT_EQ(compiled->stats().live_rules, 5u);
  EXPECT_EQ(compiled->stats().dead_rules, 1u);
  EXPECT_EQ(compiled->stats().always_fire, 1u);
  EXPECT_EQ(compiled->num_slots(), 3u);  // at_min, at_max, mid

  auto fired = [&](int64_t v) { return engine.Decide(Tuple{v}).fired; };
  EXPECT_EQ(fired(kMin), (std::vector<RuleId>{at_min, trivial}));
  EXPECT_EQ(fired(kMax), (std::vector<RuleId>{at_max, trivial}));
  EXPECT_EQ(fired(0), (std::vector<RuleId>{trivial, mid}));
  EXPECT_EQ(fired(10), (std::vector<RuleId>{trivial, mid}));
  EXPECT_EQ(fired(11), (std::vector<RuleId>{trivial}));
  EXPECT_EQ(fired(4), (std::vector<RuleId>{trivial, mid}));  // dead never fires
  (void)dead;
}

TEST(ServingEquivalence, EmptyRuleSetAndEmptyEpochNeverFlag) {
  auto schema = std::make_shared<Schema>();
  ASSERT_TRUE(schema->AddNumeric("amount").ok());
  ServingEngine engine(schema);
  // Pre-publish: the empty epoch-0 artifact.
  Decision d = engine.Decide(Tuple{42});
  EXPECT_EQ(d.epoch, 0u);
  EXPECT_FALSE(d.flagged);
  EXPECT_TRUE(d.fired.empty());
  // An explicitly published empty rule set behaves the same, at epoch 1.
  RuleSet none;
  engine.Publish(none);
  d = engine.Decide(Tuple{42});
  EXPECT_EQ(d.epoch, 1u);
  EXPECT_FALSE(d.flagged);
}

// The property harness: 26 random universes × 4000 tuples ≥ 100k randomized
// (rule set, tuple) pairs, split across seeds so failures name their world.
class ServingEquivalenceProperty : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ServingEquivalenceProperty,
                         ::testing::Range(uint64_t{0}, uint64_t{13}));

TEST_P(ServingEquivalenceProperty, RandomWorldsBitIdentical) {
  Rng rng(GetParam() * 0x9E37u + 0x51D3);
  size_t pairs = 0;
  for (int world = 0; world < 2; ++world) {
    std::shared_ptr<const Schema> schema = RandomSchema(&rng);
    Relation rel = RandomRelation(schema, 4000, &rng);
    RuleSet rules;
    int n = static_cast<int>(rng.UniformInt(0, 10));
    for (int i = 0; i < n; ++i) rules.AddRule(RandomRule(*schema, &rng));
    pairs += CheckServingMatchesBatch(schema, rel, rules);
  }
  EXPECT_EQ(pairs, 8000u);  // 13 seeds × 8000 = 104k pairs over the suite
}

// Realistic credit-card universe: generated stream, random rule sets.
TEST(ServingEquivalence, CreditCardWorkloadBitIdentical) {
  Scenario s = TinyScenario();
  s.options.num_transactions = 4000;
  Dataset ds = GenerateDataset(s.options);
  std::shared_ptr<const Schema> schema = ds.relation->shared_schema();
  Rng rng(77);
  for (int trial = 0; trial < 3; ++trial) {
    RuleSet rules;
    for (int i = 0; i < 8; ++i) rules.AddRule(RandomRule(*schema, &rng));
    CheckServingMatchesBatch(schema, *ds.relation, rules);
  }
}

// The session publish hook: a Refine() run with SessionOptions::serving set
// must leave the engine answering with the session's final rule set.
TEST(ServingEquivalence, SessionPublishHookServesFinalRules) {
  PaperExample ex = MakePaperExample();
  MarkPaperLegitimates(&ex);
  ServingEngine engine(ex.schema);
  SessionOptions options;
  options.serving = &engine;
  RefinementSession session(*ex.relation, ex.relation->NumRows(), options);
  RuleSet rules = ex.rules;
  EditLog log;
  ScriptedExpert expert;
  SessionStats stats = session.Refine(&rules, &expert, &log);
  ASSERT_GT(stats.edits, 0u);
  EXPECT_GE(engine.current_epoch(), 1u);

  Decision decision;
  for (size_t r = 0; r < ex.relation->NumRows(); ++r) {
    Tuple tuple = ex.relation->GetRow(r);
    engine.Decide(tuple, &decision);
    EXPECT_EQ(decision.fired, rules.CapturingRules(*ex.schema, tuple))
        << "row " << r;
  }
}

// Serving only ever sees whole rounds: the session's engines edit its
// tracker, and the caller's set is refreshed from it after each round's
// engines, just before that round's publish. So at every review, the
// serving engine answers exactly as the caller's set does. (The closing
// simplify-and-publish hides a stale round publish from the test above.)
TEST(ServingEquivalence, SessionServesCallersSetAtEveryReview) {
  // Checks the serving engine against the caller's set, then forwards the
  // review to a ScriptedExpert.
  class ForwardingExpert : public Expert {
   public:
    ForwardingExpert(const PaperExample& ex, const ServingEngine& engine,
                     const RuleSet& rules)
        : ex_(ex), engine_(engine), rules_(rules) {}

    GeneralizationReview ReviewGeneralization(
        const GeneralizationProposal& proposal,
        const Relation& relation) override {
      CheckServingMatchesCaller();
      return inner_.ReviewGeneralization(proposal, relation);
    }
    SplitReview ReviewSplit(const SplitProposal& proposal,
                            const Relation& relation) override {
      CheckServingMatchesCaller();
      return inner_.ReviewSplit(proposal, relation);
    }
    std::string name() const override { return "forwarding"; }

    size_t reviews = 0;

   private:
    void CheckServingMatchesCaller() {
      ++reviews;
      Decision decision;
      for (size_t r = 0; r < ex_.relation->NumRows(); ++r) {
        Tuple tuple = ex_.relation->GetRow(r);
        engine_.Decide(tuple, &decision);
        EXPECT_EQ(decision.fired, rules_.CapturingRules(*ex_.schema, tuple))
            << "review " << reviews << ", row " << r;
      }
    }

    const PaperExample& ex_;
    const ServingEngine& engine_;
    const RuleSet& rules_;
    ScriptedExpert inner_;
  };

  PaperExample ex = MakePaperExample();
  MarkPaperLegitimates(&ex);
  ServingEngine engine(ex.schema);
  RuleSet rules = ex.rules;
  engine.Publish(rules);
  SessionOptions options;
  options.serving = &engine;
  // One cluster and one legitimate tuple per pass spread the work over the
  // rounds, so later rounds review proposals after earlier rounds' publishes.
  options.generalize.max_clusters_per_pass = 1;
  options.specialize.max_legit_tuples = 1;
  RefinementSession session(*ex.relation, ex.relation->NumRows(), options);
  EditLog log;
  ForwardingExpert expert(ex, engine, rules);
  SessionStats stats = session.Refine(&rules, &expert, &log);
  ASSERT_GT(stats.edits, 0u);
  EXPECT_GE(stats.rounds, 2);  // a review follows a round's publish
  EXPECT_GT(expert.reviews, 1u);
}

}  // namespace
}  // namespace rudolf
