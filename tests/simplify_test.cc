#include "rules/simplify.h"

#include <gtest/gtest.h>

#include "rules/evaluator.h"
#include "rules/parser.h"
#include "util/random.h"
#include "workload/paper_example.h"

namespace rudolf {
namespace {

class SimplifyTest : public ::testing::Test {
 protected:
  SimplifyTest() : ex_(MakePaperExample()) {}
  Rule Parse(const std::string& text) {
    return ParseRule(*ex_.schema, text).ValueOrDie();
  }
  // Captures of the rule set over the example relation.
  Bitset Captures(const RuleSet& rules) {
    RuleEvaluator eval(*ex_.relation);
    return eval.EvalRuleSet(rules);
  }
  PaperExample ex_;
  EditLog log_;
};

TEST_F(SimplifyTest, RemovesDuplicates) {
  RuleSet rules;
  rules.AddRule(Parse("amount >= 100"));
  rules.AddRule(Parse("amount >= 100"));
  rules.AddRule(Parse("amount >= 100"));
  Bitset before = Captures(rules);
  SimplifyStats stats = SimplifyRuleSet(*ex_.schema, &rules, &log_);
  EXPECT_EQ(stats.duplicates_removed, 2u);
  EXPECT_EQ(rules.size(), 1u);
  EXPECT_EQ(Captures(rules), before);
}

TEST_F(SimplifyTest, RemovesSubsumedRules) {
  RuleSet rules;
  rules.AddRule(Parse("amount >= 100"));
  rules.AddRule(Parse("amount >= 110 && type <= 'Online'"));  // ⊆ the first
  Bitset before = Captures(rules);
  SimplifyStats stats = SimplifyRuleSet(*ex_.schema, &rules, &log_);
  EXPECT_EQ(stats.subsumed_removed, 1u);
  EXPECT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules.Get(rules.LiveIds()[0]), Parse("amount >= 100"));
  EXPECT_EQ(Captures(rules), before);
}

TEST_F(SimplifyTest, MergesAbuttingFragments) {
  // Algorithm 2's split debris: [18:00,18:03] + [18:04,18:05] fuse.
  RuleSet rules;
  rules.AddRule(Parse("time in [18:00,18:03] && amount >= 100"));
  rules.AddRule(Parse("time in [18:04,18:05] && amount >= 100"));
  Bitset before = Captures(rules);
  SimplifyStats stats = SimplifyRuleSet(*ex_.schema, &rules, &log_);
  EXPECT_EQ(stats.merged, 1u);
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules.Get(rules.LiveIds()[0]),
            Parse("time in [18:00,18:05] && amount >= 100"));
  EXPECT_EQ(Captures(rules), before);
}

TEST_F(SimplifyTest, DoesNotMergeWithAGap) {
  // [18:00,18:03] and [18:05,18:05] exclude 18:04 on purpose — no merge.
  RuleSet rules;
  rules.AddRule(Parse("time in [18:00,18:03] && amount >= 100"));
  rules.AddRule(Parse("time = 18:05 && amount >= 100"));
  SimplifyStats stats = SimplifyRuleSet(*ex_.schema, &rules, &log_);
  EXPECT_EQ(stats.merged, 0u);
  EXPECT_EQ(rules.size(), 2u);
}

TEST_F(SimplifyTest, DoesNotMergeWhenOtherAttributesDiffer) {
  RuleSet rules;
  rules.AddRule(Parse("time in [18:00,18:03] && amount >= 100"));
  rules.AddRule(Parse("time in [18:04,18:05] && amount >= 200"));
  SimplifyStats stats = SimplifyRuleSet(*ex_.schema, &rules, &log_);
  EXPECT_EQ(stats.merged, 0u);
}

TEST_F(SimplifyTest, MergeCascades) {
  RuleSet rules;
  rules.AddRule(Parse("amount in [10,20]"));
  rules.AddRule(Parse("amount in [21,30]"));
  rules.AddRule(Parse("amount in [31,40]"));
  SimplifyStats stats = SimplifyRuleSet(*ex_.schema, &rules, &log_);
  EXPECT_EQ(stats.merged, 2u);
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules.Get(rules.LiveIds()[0]).condition(1).interval(),
            (Interval{10, 40}));
}

TEST_F(SimplifyTest, OverlappingIntervalsAlsoMerge) {
  RuleSet rules;
  rules.AddRule(Parse("amount in [10,25]"));
  rules.AddRule(Parse("amount in [20,40]"));
  SimplifyStats stats = SimplifyRuleSet(*ex_.schema, &rules, &log_);
  // Overlap means one may subsume after merge; either way one rule remains
  // covering [10,40].
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules.Get(rules.LiveIds()[0]).condition(1).interval(),
            (Interval{10, 40}));
  EXPECT_GE(stats.merged, 1u);
}

TEST_F(SimplifyTest, RemovesEmptyRules) {
  RuleSet rules;
  Rule empty = Parse("amount >= 100");
  empty.set_condition(1, Condition::MakeNumeric({10, 5}));
  rules.AddRule(empty);
  rules.AddRule(Parse("amount >= 100"));
  SimplifyStats stats = SimplifyRuleSet(*ex_.schema, &rules, &log_);
  EXPECT_EQ(stats.empty_removed, 1u);
  EXPECT_EQ(rules.size(), 1u);
}

TEST_F(SimplifyTest, CategoricalSubsumption) {
  RuleSet rules;
  rules.AddRule(Parse("location <= 'Gas Station'"));
  rules.AddRule(Parse("location = 'GAS Station A'"));
  SimplifyStats stats = SimplifyRuleSet(*ex_.schema, &rules, &log_);
  EXPECT_EQ(stats.subsumed_removed, 1u);
  EXPECT_EQ(rules.size(), 1u);
}

TEST_F(SimplifyTest, EditsAreLoggedAtZeroCost) {
  RuleSet rules;
  rules.AddRule(Parse("amount >= 100"));
  rules.AddRule(Parse("amount >= 100"));
  SimplifyRuleSet(*ex_.schema, &rules, &log_);
  ASSERT_GT(log_.size(), 0u);
  EXPECT_DOUBLE_EQ(log_.TotalCost(), 0.0);
  EXPECT_EQ(log_.edit(0).kind, EditKind::kRemoveRule);
}

TEST_F(SimplifyTest, PropertyCapturePreservingOnRandomSets) {
  Rng rng(31337);
  for (int trial = 0; trial < 15; ++trial) {
    RuleSet rules;
    int n = static_cast<int>(rng.UniformInt(2, 8));
    for (int i = 0; i < n; ++i) {
      Rule r = Rule::Trivial(*ex_.schema);
      int64_t lo = rng.UniformInt(40, 120);
      r.set_condition(1, Condition::MakeNumeric({lo, lo + rng.UniformInt(0, 60)}));
      if (rng.Bernoulli(0.4)) {
        int64_t t = rng.UniformInt(1080, 1270);
        r.set_condition(0, Condition::MakeNumeric({t, t + rng.UniformInt(0, 20)}));
      }
      rules.AddRule(r);
    }
    Bitset before = Captures(rules);
    size_t size_before = rules.size();
    SimplifyStats stats = SimplifyRuleSet(*ex_.schema, &rules, &log_);
    EXPECT_EQ(Captures(rules), before) << "trial " << trial;
    EXPECT_EQ(rules.size(), size_before - stats.total());
  }
}

}  // namespace
}  // namespace rudolf
