#include "core/capture_tracker.h"

#include <gtest/gtest.h>

#include "rules/parser.h"
#include "workload/paper_example.h"

namespace rudolf {
namespace {

class CaptureTrackerTest : public ::testing::Test {
 protected:
  CaptureTrackerTest() : ex_(MakePaperExample()) { MarkPaperLegitimates(&ex_); }
  Rule Parse(const std::string& text) {
    return ParseRule(*ex_.schema, text).ValueOrDie();
  }
  PaperExample ex_;
};

TEST_F(CaptureTrackerTest, InitialStateMatchesEvaluator) {
  CaptureTracker tracker(*ex_.relation, ex_.rules);
  RuleEvaluator eval(*ex_.relation);
  for (RuleId id : ex_.rules.LiveIds()) {
    EXPECT_EQ(tracker.RuleCapture(id), eval.EvalRule(ex_.rules.Get(id)));
  }
  EXPECT_EQ(tracker.UnionCapture(), eval.EvalRuleSet(ex_.rules));
  EXPECT_TRUE(tracker.IsCovered(2));
  EXPECT_TRUE(tracker.IsCovered(9));
  EXPECT_FALSE(tracker.IsCovered(0));
}

TEST_F(CaptureTrackerTest, TotalCountsUsesVisibleLabels) {
  CaptureTracker tracker(*ex_.relation, ex_.rules);
  LabelCounts counts = tracker.TotalCounts();
  // Captured rows 2 and 9 are both marked legitimate by Example 4.7.
  EXPECT_EQ(counts.legitimate, 2u);
  EXPECT_EQ(counts.fraud, 0u);
  EXPECT_EQ(counts.unlabeled, 0u);
}

TEST_F(CaptureTrackerTest, CoverCountTracksOverlap) {
  RuleSet rules;
  rules.AddRule(Parse("amount >= 100"));
  rules.AddRule(Parse("amount >= 110"));
  CaptureTracker tracker(*ex_.relation, rules);
  // Row 0 (107): one rule; row 2 (112): both rules.
  EXPECT_EQ(tracker.CoverCount(0), 1u);
  EXPECT_EQ(tracker.CoverCount(2), 2u);
  EXPECT_EQ(tracker.CoverCount(5), 0u);  // amount 46
}

TEST_F(CaptureTrackerTest, DeltaForAdd) {
  CaptureTracker tracker(*ex_.relation, ex_.rules);
  Bitset capture = tracker.Eval(Parse("amount in [106,107]"));
  BenefitDelta d = tracker.DeltaForAdd(capture);
  EXPECT_EQ(d.fraud, 2);  // rows 0, 1
  EXPECT_EQ(d.legit, 0);
  EXPECT_EQ(d.unlabeled, 0);
}

TEST_F(CaptureTrackerTest, DeltaForAddDoesNotDoubleCountCovered) {
  CaptureTracker tracker(*ex_.relation, ex_.rules);
  // Row 2 is already covered by rule 0; adding another rule capturing it
  // changes nothing.
  Bitset capture = tracker.Eval(Parse("amount = 112"));
  BenefitDelta d = tracker.DeltaForAdd(capture);
  EXPECT_EQ(d, BenefitDelta{});
}

TEST_F(CaptureTrackerTest, DeltaForSplitWithNoSidesRemovesTheRule) {
  CaptureTracker tracker(*ex_.relation, ex_.rules);
  RuleId first = ex_.rules.LiveIds()[0];  // captures row 2 (legitimate)
  std::vector<SplitScore> scores =
      tracker.DeltaForSplit(first, {AttributeSplit{1, {}}});
  ASSERT_EQ(scores.size(), 1u);
  BenefitDelta d = scores[0].delta;
  EXPECT_EQ(d.fraud, 0);
  EXPECT_EQ(d.legit, 1);  // one fewer captured legitimate
  EXPECT_EQ(d.unlabeled, 0);
  EXPECT_TRUE(scores[0].side_counts.empty());
}

TEST_F(CaptureTrackerTest, DeltaForReplace) {
  CaptureTracker tracker(*ex_.relation, ex_.rules);
  RuleId first = ex_.rules.LiveIds()[0];
  // Generalize rule 1 to amount >= 106: keeps row 2, adds frauds 0 and 1.
  Bitset capture = tracker.Eval(Parse("time in [18:00,18:05] && amount >= 106"));
  BenefitDelta d = tracker.DeltaForReplace(first, capture);
  EXPECT_EQ(d.fraud, 2);
  EXPECT_EQ(d.legit, 0);
}

TEST_F(CaptureTrackerTest, DeltaForSplitAroundRow) {
  RuleSet rules;
  RuleId id = rules.AddRule(Parse("time in [18:00,18:05] && amount >= 100"));
  CaptureTracker tracker(*ex_.relation, rules);
  // Split around row 2's time (18:04): keeps frauds 0,1; drops legit row 2.
  const std::vector<Condition> sides = {
      Parse("time in [18:00,18:03]").condition(0),
      Parse("time = 18:05").condition(0),
  };
  std::vector<SplitScore> scores =
      tracker.DeltaForSplit(id, {AttributeSplit{0, sides}});
  ASSERT_EQ(scores.size(), 1u);
  BenefitDelta d = scores[0].delta;
  EXPECT_EQ(d.fraud, 0);
  EXPECT_EQ(d.legit, 1);
  EXPECT_EQ(d.unlabeled, 0);
  const std::vector<LabelCounts>& side_counts = scores[0].side_counts;
  ASSERT_EQ(side_counts.size(), 2u);
  EXPECT_EQ(side_counts[0], (LabelCounts{2, 0, 0}));  // rows 0, 1
  EXPECT_EQ(side_counts[1], LabelCounts{});
}

// One walk scores the splits of every attribute it is given: each score
// equals the one the split gets alone, whatever else is in the call.
TEST_F(CaptureTrackerTest, DeltaForSplitScoresEveryAttributeInOneWalk) {
  RuleSet rules;
  RuleId id = rules.AddRule(Parse("time in [18:00,18:05] && amount >= 100"));
  rules.AddRule(Parse("amount = 107"));  // row 0 is covered twice
  CaptureTracker tracker(*ex_.relation, rules);
  const std::vector<AttributeSplit> splits = {
      {0, {Parse("time in [18:00,18:03]").condition(0),
           Parse("time = 18:05").condition(0)}},
      {1, {Parse("amount in [100,106]").condition(1),
           Parse("amount >= 108").condition(1)}},
      {0, {Parse("time = 18:04").condition(0)}},
      {1, {}},
  };
  std::vector<SplitScore> together = tracker.DeltaForSplit(id, splits);
  ASSERT_EQ(together.size(), splits.size());
  for (size_t s = 0; s < splits.size(); ++s) {
    std::vector<SplitScore> alone = tracker.DeltaForSplit(id, {splits[s]});
    ASSERT_EQ(alone.size(), 1u);
    EXPECT_EQ(together[s].delta, alone[0].delta) << "split " << s;
    EXPECT_EQ(together[s].side_counts, alone[0].side_counts) << "split " << s;
  }
  EXPECT_EQ(together[2].delta, (BenefitDelta{-1, 0, 0}));
  EXPECT_EQ(together[3].delta, (BenefitDelta{-1, 1, 0}));
  EXPECT_TRUE(tracker.DeltaForSplit(id, {}).empty());
}

TEST_F(CaptureTrackerTest, DeltaForSplitLosesOnlyRowsNoOtherRuleCovers) {
  RuleSet rules;
  RuleId id = rules.AddRule(Parse("time in [18:00,18:05] && amount >= 100"));
  rules.AddRule(Parse("amount = 107"));  // row 0 is covered twice
  CaptureTracker tracker(*ex_.relation, rules);
  // Keep only 18:04 (row 2): rows 0 and 1 leave the rule, and only row 1
  // leaves the union.
  std::vector<SplitScore> scores = tracker.DeltaForSplit(
      id, {AttributeSplit{0, {Parse("time = 18:04").condition(0)}}});
  ASSERT_EQ(scores.size(), 1u);
  EXPECT_EQ(scores[0].delta, (BenefitDelta{-1, 0, 0}));
  ASSERT_EQ(scores[0].side_counts.size(), 1u);
  EXPECT_EQ(scores[0].side_counts[0], (LabelCounts{0, 1, 0}));  // row 2
}

TEST_F(CaptureTrackerTest, ApplyReplaceKeepsStateConsistent) {
  RuleSet rules = ex_.rules;
  CaptureTracker tracker(*ex_.relation, rules);
  RuleId first = rules.LiveIds()[0];
  Rule widened = Parse("time in [18:00,18:05] && amount >= 106");
  tracker.Replace(first, widened);
  rules.Replace(first, widened);
  EXPECT_EQ(tracker.rules().ToString(*ex_.schema), rules.ToString(*ex_.schema));
  CaptureTracker fresh(*ex_.relation, rules);
  EXPECT_EQ(tracker.UnionCapture(), fresh.UnionCapture());
  for (size_t r = 0; r < ex_.relation->NumRows(); ++r) {
    EXPECT_EQ(tracker.CoverCount(r), fresh.CoverCount(r)) << r;
  }
}

TEST_F(CaptureTrackerTest, ApplyAddAndRemoveKeepStateConsistent) {
  RuleSet rules = ex_.rules;
  CaptureTracker tracker(*ex_.relation, rules);
  Rule extra = Parse("amount in [44,48]");
  EXPECT_EQ(tracker.Add(extra), rules.AddRule(extra));
  EXPECT_TRUE(tracker.IsCovered(5));
  RuleId first = rules.LiveIds()[0];
  rules.RemoveRule(first);
  tracker.Remove(first);
  // A rule of the tracker's own set, passed back in.
  RuleId last = tracker.rules().LiveIds().back();
  EXPECT_EQ(tracker.Add(tracker.rules().Get(last)), rules.AddRule(rules.Get(last)));
  EXPECT_EQ(tracker.rules().ToString(*ex_.schema), rules.ToString(*ex_.schema));
  CaptureTracker fresh(*ex_.relation, rules);
  EXPECT_EQ(tracker.UnionCapture(), fresh.UnionCapture());
}

TEST_F(CaptureTrackerTest, PrefixRestrictsUniverse) {
  CaptureTracker tracker(*ex_.relation, ex_.rules, 5);
  EXPECT_EQ(tracker.prefix_rows(), 5u);
  EXPECT_EQ(tracker.UnionCapture().size(), 5u);
  // Row 9 (captured by rule 3) is outside the prefix.
  LabelCounts counts = tracker.TotalCounts();
  EXPECT_EQ(counts.total(), 1u);  // only row 2
}

TEST_F(CaptureTrackerTest, EmptyRuleSet) {
  RuleSet rules;
  CaptureTracker tracker(*ex_.relation, rules);
  EXPECT_TRUE(tracker.UnionCapture().None());
  EXPECT_EQ(tracker.TotalCounts().total(), 0u);
}

}  // namespace
}  // namespace rudolf
