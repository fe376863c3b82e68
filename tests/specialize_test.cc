#include "core/specialize.h"

#include <gtest/gtest.h>

#include "expert/scripted_expert.h"
#include "relation/builder.h"
#include "rules/parser.h"
#include "workload/paper_example.h"

namespace rudolf {
namespace {

class SpecializeTest : public ::testing::Test {
 protected:
  SpecializeTest() : ex_(MakePaperExample()) { MarkPaperLegitimates(&ex_); }

  Rule Parse(const std::string& text) {
    return ParseRule(*ex_.schema, text).ValueOrDie();
  }

  SpecializeStats RunEngine(RuleSet* rules, Expert* expert,
                            SpecializeOptions options = {}) {
    SpecializationEngine engine(*ex_.relation, options);
    CaptureTracker tracker(*ex_.relation, *rules);
    SpecializeStats stats = engine.Run(&tracker, expert, &log_);
    *rules = tracker.rules();
    return stats;
  }

  PaperExample ex_;
  EditLog log_;
};

TEST_F(SpecializeTest, NoCapturedLegitIsANoOp) {
  RuleSet rules;
  rules.AddRule(Parse("amount >= 5000"));  // captures nothing
  ScriptedExpert expert;
  SpecializeStats stats = RunEngine(&rules, &expert);
  EXPECT_EQ(stats.tuples, 0u);
  EXPECT_EQ(log_.size(), 0u);
}

TEST_F(SpecializeTest, NumericSplitExcludesValueAndKeepsRest) {
  RuleSet rules;
  rules.AddRule(Parse("time in [18:00,18:05] && amount >= 100"));
  ScriptedExpert expert;
  SpecializeStats stats = RunEngine(&rules, &expert);
  EXPECT_EQ(stats.tuples, 1u);  // row 2
  EXPECT_GE(stats.splits_applied, 1u);
  EXPECT_FALSE(rules.CapturesRow(*ex_.relation, 2));
  EXPECT_TRUE(rules.CapturesRow(*ex_.relation, 0));
  EXPECT_TRUE(rules.CapturesRow(*ex_.relation, 1));
}

TEST_F(SpecializeTest, SplitRanksLossyAttributesLower) {
  RuleSet rules;
  RuleId id = rules.AddRule(Parse("time in [18:00,18:05] && amount >= 100"));
  SpecializeOptions options;
  SpecializationEngine engine(*ex_.relation, options);
  CaptureTracker tracker(*ex_.relation, rules);
  auto proposals = engine.RankSplits(tracker, id, 2);
  ASSERT_GE(proposals.size(), 2u);
  // Every proposal's replacements exclude the tuple.
  Tuple l = ex_.relation->GetRow(2);
  for (const auto& p : proposals) {
    for (const Rule& r : p.replacements) {
      EXPECT_FALSE(r.MatchesTuple(*ex_.schema, l));
    }
  }
  // Benefits are sorted descending.
  for (size_t i = 1; i < proposals.size(); ++i) {
    EXPECT_GE(proposals[i - 1].benefit, proposals[i].benefit);
  }
}

TEST_F(SpecializeTest, SplitOnAmountProducesTwoIntervals) {
  RuleSet rules;
  RuleId id = rules.AddRule(Parse("amount in [100,120]"));
  SpecializationEngine engine(*ex_.relation, SpecializeOptions{});
  CaptureTracker tracker(*ex_.relation, rules);
  auto proposals = engine.RankSplits(tracker, id, 2);  // amount 112
  const SplitProposal* amount = nullptr;
  for (const auto& p : proposals) {
    if (p.attribute == 1) amount = &p;
  }
  ASSERT_NE(amount, nullptr);
  ASSERT_EQ(amount->replacements.size(), 2u);
  EXPECT_EQ(amount->replacements[0].condition(1).interval(), (Interval{100, 111}));
  EXPECT_EQ(amount->replacements[1].condition(1).interval(), (Interval{113, 120}));
}

TEST_F(SpecializeTest, SplitAtIntervalBoundaryKeepsOneSide) {
  RuleSet rules;
  RuleId id = rules.AddRule(Parse("amount in [112,130]"));
  SpecializationEngine engine(*ex_.relation, SpecializeOptions{});
  CaptureTracker tracker(*ex_.relation, rules);
  auto proposals = engine.RankSplits(tracker, id, 2);  // amount = 112
  const SplitProposal* amount = nullptr;
  for (const auto& p : proposals) {
    if (p.attribute == 1) amount = &p;
  }
  ASSERT_NE(amount, nullptr);
  ASSERT_EQ(amount->replacements.size(), 1u);
  EXPECT_EQ(amount->replacements[0].condition(1).interval(), (Interval{113, 130}));
}

TEST_F(SpecializeTest, PointConditionSplitsToRuleRemoval) {
  RuleSet rules;
  RuleId id = rules.AddRule(Parse("amount = 112"));
  SpecializationEngine engine(*ex_.relation, SpecializeOptions{});
  CaptureTracker tracker(*ex_.relation, rules);
  auto proposals = engine.RankSplits(tracker, id, 2);
  const SplitProposal* amount = nullptr;
  for (const auto& p : proposals) {
    if (p.attribute == 1) amount = &p;
  }
  ASSERT_NE(amount, nullptr);
  EXPECT_TRUE(amount->replacements.empty());
  // Running the engine applies it as a removal.
  ScriptedExpert expert;
  SplitReview accept_removal;
  accept_removal.action = SplitReview::Action::kAccept;
  // Queue enough accepts; the engine picks the best-benefit attribute which
  // may or may not be the removal — force it by having only this rule.
  SpecializeStats stats = RunEngine(&rules, &expert);
  EXPECT_FALSE(rules.CapturesRow(*ex_.relation, 2));
  EXPECT_GE(stats.accepted, 1u);
}

// The sides narrow the rule around the row's values, so for a row the rule
// does not capture they could widen it instead: row 3 (19:08) would give
// `time in [18:00,19:07] && amount >= 100`. Such a row gets no ranking, and
// neither does a row beyond the tracker's prefix or a rule that is not live.
TEST_F(SpecializeTest, RowOutsideTheRuleGetsNoSplits) {
  RuleSet rules;
  RuleId id = rules.AddRule(Parse("time in [18:00,18:05] && amount >= 100"));
  SpecializationEngine engine(*ex_.relation, SpecializeOptions{});
  CaptureTracker tracker(*ex_.relation, rules);
  for (size_t row = 3; row < ex_.relation->NumRows(); ++row) {
    EXPECT_TRUE(engine.RankSplits(tracker, id, row).empty()) << "row " << row;
  }
  EXPECT_FALSE(engine.RankSplits(tracker, id, 2).empty());
  CaptureTracker two_rows(*ex_.relation, rules, 2);  // row 2 is not visible
  EXPECT_TRUE(engine.RankSplits(two_rows, id, 2).empty());
  EXPECT_TRUE(engine.RankSplits(tracker, id + 1, 2).empty());
}

TEST_F(SpecializeTest, CategoricalSplitUsesLeafCover) {
  RuleSet rules;
  rules.AddRule(Parse("time in [20:45,21:30] && location <= 'Gas Station'"));
  ScriptedExpert expert;
  // Row 9 is at GAS Station A; the cover split should leave GAS Station B.
  SpecializeStats stats = RunEngine(&rules, &expert);
  EXPECT_GE(stats.splits_applied + stats.rules_removed, 1u);
  EXPECT_FALSE(rules.CapturesRow(*ex_.relation, 9));
  // Gas-station frauds (rows 5-7, GAS Station B) stay captured.
  for (size_t r : {5u, 6u, 7u}) {
    EXPECT_TRUE(rules.CapturesRow(*ex_.relation, r)) << r;
  }
}

TEST_F(SpecializeTest, RejectMovesToNextAttribute) {
  RuleSet rules;
  RuleId id = rules.AddRule(Parse("time in [18:00,18:05] && amount >= 100"));
  SpecializationEngine engine(*ex_.relation, SpecializeOptions{});
  CaptureTracker tracker(*ex_.relation, rules);
  auto ranked = engine.RankSplits(tracker, id, 2);
  ASSERT_GE(ranked.size(), 2u);
  ScriptedExpert expert;
  SplitReview reject;
  reject.action = SplitReview::Action::kReject;
  expert.PushSplit(reject);  // reject the best; accept the second
  SpecializeStats stats = RunEngine(&rules, &expert);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_GE(stats.accepted, 1u);
  EXPECT_FALSE(rules.CapturesRow(*ex_.relation, 2));
  ASSERT_GE(expert.seen_splits().size(), 2u);
  EXPECT_NE(expert.seen_splits()[0].attribute,
            expert.seen_splits()[1].attribute);
}

TEST_F(SpecializeTest, RejectingEverythingLeavesTupleCaptured) {
  RuleSet rules;
  rules.AddRule(Parse("time in [18:00,18:05] && amount >= 100"));
  ScriptedExpert expert;
  SplitReview reject;
  reject.action = SplitReview::Action::kReject;
  for (int i = 0; i < 20; ++i) expert.PushSplit(reject);
  SpecializeStats stats = RunEngine(&rules, &expert);
  EXPECT_GE(stats.skipped_tuples, 1u);
  EXPECT_TRUE(rules.CapturesRow(*ex_.relation, 2));
  EXPECT_EQ(log_.size(), 0u);
}

TEST_F(SpecializeTest, RevisedReplacementsApplied) {
  RuleSet rules;
  rules.AddRule(Parse("time in [18:00,18:05] && amount >= 100"));
  ScriptedExpert expert;
  SplitReview revised;
  revised.action = SplitReview::Action::kAcceptRevised;
  // Elena-style: keep only one side of the split.
  revised.revised = {Parse("time in [18:00,18:03] && amount >= 100")};
  expert.PushSplit(revised);
  SpecializeStats stats = RunEngine(&rules, &expert);
  EXPECT_EQ(stats.revised, 1u);
  EXPECT_EQ(rules.size(), 1u);
  EXPECT_FALSE(rules.CapturesRow(*ex_.relation, 2));
  EXPECT_GT(log_.CountSource(EditSource::kExpert), 0u);
}

TEST_F(SpecializeTest, NoOntologyModeSkipsCategoricalSplits) {
  RuleSet rules;
  RuleId id = rules.AddRule(Parse("time in [20:45,21:30] && amount >= 40"));
  SpecializeOptions options;
  options.refine_categorical = false;
  SpecializationEngine engine(*ex_.relation, options);
  CaptureTracker tracker(*ex_.relation, rules);
  auto proposals = engine.RankSplits(tracker, id, 9);
  for (const auto& p : proposals) {
    EXPECT_EQ(ex_.schema->attribute(p.attribute).kind, AttrKind::kNumeric);
  }
}

TEST_F(SpecializeTest, MaxLegitTuplesCapsWork) {
  RuleSet rules;
  rules.AddRule(Rule::Trivial(*ex_.schema));  // captures all three legits
  SpecializeOptions options;
  options.max_legit_tuples = 1;
  ScriptedExpert expert;
  SpecializeStats stats = RunEngine(&rules, &expert, options);
  EXPECT_EQ(stats.tuples, 1u);
  // The two capped-out tuples are reported, not silently dropped.
  EXPECT_EQ(stats.truncated_tuples, 2u);
}

TEST_F(SpecializeTest, UncappedRunReportsNoTruncation) {
  RuleSet rules;
  rules.AddRule(Rule::Trivial(*ex_.schema));
  ScriptedExpert expert;
  SpecializeStats stats = RunEngine(&rules, &expert);
  EXPECT_EQ(stats.truncated_tuples, 0u);
}

// Numeric splits at the edges of the int64 domain: a split side whose bound
// would land on the kNegInf/kPosInf sentinel could only capture
// sentinel-valued cells, so it must be skipped — and computing it must not
// overflow.
class SentinelSplitTest : public ::testing::Test {
 protected:
  SentinelSplitTest() : cc_(MakeCreditCardSchema()), relation_(cc_.schema) {}

  // One-row relation whose amount is `amount`; returns the amount-attribute
  // split proposal for the rule "amount in iv".
  SplitProposal AmountSplit(int64_t amount, const Interval& iv) {
    Tuple row(cc_.schema->arity(), 0);
    row[cc_.layout.amount] = amount;
    EXPECT_TRUE(relation_.AppendRow(row).ok());
    RuleSet rules;
    Rule rule = Rule::Trivial(*cc_.schema);
    rule.set_condition(cc_.layout.amount, Condition::MakeNumeric(iv));
    RuleId id = rules.AddRule(rule);
    SpecializationEngine engine(relation_, SpecializeOptions{});
    CaptureTracker tracker(relation_, rules);
    auto proposals = engine.RankSplits(tracker, id, 0);
    for (auto& p : proposals) {
      if (p.attribute == cc_.layout.amount) return p;
    }
    ADD_FAILURE() << "no amount proposal";
    return SplitProposal{};
  }

  CreditCardSchema cc_;
  Relation relation_;
};

TEST_F(SentinelSplitTest, SplitJustAboveNegInfSkipsSentinelSide) {
  SplitProposal p = AmountSplit(kNegInf + 1, Interval::AtMost(100));
  // Left side [kNegInf, kNegInf] would be sentinel-only: skipped.
  ASSERT_EQ(p.replacements.size(), 1u);
  EXPECT_EQ(p.replacements[0].condition(cc_.layout.amount).interval(),
            (Interval{kNegInf + 2, 100}));
}

TEST_F(SentinelSplitTest, SplitJustBelowPosInfSkipsSentinelSide) {
  SplitProposal p = AmountSplit(kPosInf - 1, Interval::AtLeast(0));
  // Right side [kPosInf, kPosInf] would be sentinel-only: skipped.
  ASSERT_EQ(p.replacements.size(), 1u);
  EXPECT_EQ(p.replacements[0].condition(cc_.layout.amount).interval(),
            (Interval{0, kPosInf - 2}));
}

TEST_F(SentinelSplitTest, InteriorSplitStillProducesBothSides) {
  SplitProposal p = AmountSplit(50, Interval{0, 100});
  ASSERT_EQ(p.replacements.size(), 2u);
  EXPECT_EQ(p.replacements[0].condition(cc_.layout.amount).interval(),
            (Interval{0, 49}));
  EXPECT_EQ(p.replacements[1].condition(cc_.layout.amount).interval(),
            (Interval{51, 100}));
}

TEST_F(SpecializeTest, MultipleCapturingRulesAllHandled) {
  RuleSet rules;
  rules.AddRule(Parse("amount >= 100"));
  rules.AddRule(Parse("type <= 'Online'"));
  ScriptedExpert expert;
  RunEngine(&rules, &expert);
  // Both l1 (row 2) and l2 (row 4) excluded from every rule.
  EXPECT_FALSE(rules.CapturesRow(*ex_.relation, 2));
  EXPECT_FALSE(rules.CapturesRow(*ex_.relation, 4));
}

TEST_F(SpecializeTest, SplitProposalToString) {
  RuleSet rules;
  RuleId id = rules.AddRule(Parse("amount in [100,120]"));
  SpecializationEngine engine(*ex_.relation, SpecializeOptions{});
  CaptureTracker tracker(*ex_.relation, rules);
  auto proposals = engine.RankSplits(tracker, id, 2);
  ASSERT_FALSE(proposals.empty());
  std::string s = proposals[0].ToString(*ex_.schema);
  EXPECT_NE(s.find("SPLIT"), std::string::npos);
  EXPECT_NE(s.find("benefit"), std::string::npos);
}

}  // namespace
}  // namespace rudolf
