// Replays the paper's running example end to end: the captures of Example
// 2.2, the representative tuples and Equation 2 ranking of Example 4.4, and
// the split proposals of Example 4.7.

#include "workload/paper_example.h"

#include <gtest/gtest.h>

#include "cluster/representative.h"
#include "core/capture_tracker.h"
#include "core/generalize.h"
#include "core/specialize.h"
#include "expert/scripted_expert.h"
#include "rules/parser.h"

namespace rudolf {
namespace {

class PaperExampleTest : public ::testing::Test {
 protected:
  PaperExampleTest() : ex_(MakePaperExample()) {}
  Rule Parse(const std::string& text) {
    return ParseRule(*ex_.schema, text).ValueOrDie();
  }
  PaperExample ex_;
};

TEST_F(PaperExampleTest, FigureTwoShape) {
  EXPECT_EQ(ex_.relation->NumRows(), 10u);
  EXPECT_EQ(ex_.relation->RowsWithVisibleLabel(Label::kFraud),
            (std::vector<size_t>{0, 1, 3, 5, 6, 7}));
  EXPECT_EQ(ex_.rules.size(), 3u);
}

TEST_F(PaperExampleTest, Example22Captures) {
  // Rule 1 captures the 3rd tuple; rule 2 captures nothing; rule 3 captures
  // the 10th tuple; no fraudulent transaction is captured.
  std::vector<RuleId> ids = ex_.rules.LiveIds();
  RuleEvaluator eval(*ex_.relation);
  EXPECT_EQ(eval.EvalRule(ex_.rules.Get(ids[0])).ToIndices(),
            (std::vector<size_t>{2}));
  EXPECT_TRUE(eval.EvalRule(ex_.rules.Get(ids[1])).None());
  EXPECT_EQ(eval.EvalRule(ex_.rules.Get(ids[2])).ToIndices(),
            (std::vector<size_t>{9}));
}

TEST_F(PaperExampleTest, Example44Representatives) {
  // The three representatives of the fraudulent transactions.
  Rule rep1 = RepresentativeOfRows(*ex_.relation, {0, 1});
  EXPECT_EQ(rep1.condition(0).interval(), (Interval{18 * 60 + 2, 18 * 60 + 3}));
  EXPECT_EQ(rep1.condition(1).interval(), (Interval{106, 107}));
  Rule rep2 = RepresentativeOfRows(*ex_.relation, {3});
  EXPECT_EQ(rep2.condition(0).interval(),
            (Interval{19 * 60 + 8, 19 * 60 + 8}));
  EXPECT_EQ(rep2.condition(1).interval(), (Interval{114, 114}));
  Rule rep3 = RepresentativeOfRows(*ex_.relation, {5, 6, 7});
  EXPECT_EQ(rep3.condition(1).interval(), (Interval{44, 48}));
}

TEST_F(PaperExampleTest, Example44RanksRuleOneFirst) {
  // Equation 2 for representative 1: rule 1 scores distance 4 − benefit 2
  // (ΔF = 2) = 2, strictly better than rules 2 and 3.
  GeneralizeOptions options;
  options.cost_model =
      CostModel(CostCoefficients{1.0, 1.0, 1.0}, OperationCosts{});
  GeneralizationEngine engine(*ex_.relation, options);
  CaptureTracker tracker(*ex_.relation, ex_.rules);
  Rule rep1 = RepresentativeOfRows(*ex_.relation, {0, 1});
  auto candidates = engine.RankCandidates(tracker, rep1, 2);
  ASSERT_FALSE(candidates.empty());
  EXPECT_EQ(candidates[0].rule_id, ex_.rules.LiveIds()[0]);
  EXPECT_DOUBLE_EQ(candidates[0].distance, 4.0);
  EXPECT_EQ(candidates[0].delta.fraud, 2);
  EXPECT_DOUBLE_EQ(candidates[0].score, 2.0);
  // The proposal is the paper's: Amt >= 110 relaxed to Amt >= 106.
  EXPECT_EQ(candidates[0].proposed.condition(1).interval(),
            Interval::AtLeast(106));
  if (candidates.size() > 1) {
    EXPECT_GT(candidates[1].score, candidates[0].score);
  }
}

TEST_F(PaperExampleTest, Example44ExpertRoundsDown) {
  // Elena accepts but rounds $106 down to $100. Scripted as kAcceptRevised.
  GeneralizeOptions options;
  // Cluster at the granularity of the paper's walkthrough (three clusters:
  // {1,2}, {4}, {6,7,8} in 1-based rows).
  options.clustering.leader_threshold = 0.3;
  GeneralizationEngine engine(*ex_.relation, options);
  CaptureTracker tracker(*ex_.relation, ex_.rules);
  EditLog log;
  ScriptedExpert expert;
  // Clusters are triaged by size, so the gas-station cluster (3 rows) is
  // reviewed before Elena's online-store cluster (2 rows).
  GeneralizationReview accept_first;
  accept_first.action = GeneralizationReview::Action::kAccept;
  expert.PushGeneralization(accept_first);
  GeneralizationReview elena;
  elena.action = GeneralizationReview::Action::kAcceptRevised;
  elena.revised = Parse("time in [18:00,18:05] && amount >= 100");
  expert.PushGeneralization(elena);
  GeneralizeStats stats = engine.Run(&tracker, &expert, &log);
  const RuleSet& rules = tracker.rules();
  EXPECT_GE(stats.revised, 1u);
  // The first rule became Elena's version.
  EXPECT_EQ(rules.Get(0).condition(1).interval(), Interval::AtLeast(100));
  // Frauds 0 and 1 are now captured.
  EXPECT_TRUE(rules.CapturesRow(*ex_.relation, 0));
  EXPECT_TRUE(rules.CapturesRow(*ex_.relation, 1));
}

TEST_F(PaperExampleTest, FullGeneralizationCapturesAllFraud) {
  GeneralizeOptions options;
  GeneralizationEngine engine(*ex_.relation, options);
  CaptureTracker tracker(*ex_.relation, ex_.rules);
  EditLog log;
  ScriptedExpert expert;  // accepts everything
  engine.Run(&tracker, &expert, &log);
  const RuleSet& rules = tracker.rules();
  for (size_t r : {0u, 1u, 3u, 5u, 6u, 7u}) {
    EXPECT_TRUE(rules.CapturesRow(*ex_.relation, r)) << r;
  }
  EXPECT_GT(log.size(), 0u);
}

// --- Example 4.7: specialization ------------------------------------------

class PaperSpecializeTest : public PaperExampleTest {
 protected:
  PaperSpecializeTest() {
    // Install the refined rules from Example 4.4 / 4.7's preamble.
    rules_.AddRule(Parse("time in [18:00,18:05] && amount >= 100"));
    rules_.AddRule(Parse("time in [18:55,19:15] && amount >= 110"));
    rules_.AddRule(Parse(
        "time in [20:45,21:30] && amount >= 40 && location <= 'Gas Station'"));
    MarkPaperLegitimates(&ex_);
  }
  RuleSet rules_;
};

TEST_F(PaperSpecializeTest, LegitimatesAreCaptured) {
  // l1, l2, l3 (rows 2, 4, 9) are captured by the refined rules.
  for (size_t r : {2u, 4u, 9u}) {
    EXPECT_TRUE(rules_.CapturesRow(*ex_.relation, r)) << r;
  }
}

TEST_F(PaperSpecializeTest, SplitCandidatesMatchExample47) {
  SpecializeOptions options;
  options.cost_model = CostModel(CostCoefficients{1.0, 1.0, 1.0}, OperationCosts{});
  SpecializationEngine engine(*ex_.relation, options);
  CaptureTracker tracker(*ex_.relation, rules_);
  // l1 = row 2, captured by rule 0.
  auto proposals = engine.RankSplits(tracker, 0, 2);
  ASSERT_FALSE(proposals.empty());
  // Splitting on location would lose the two captured frauds (rows 0,1) —
  // the paper notes it has lower benefit than time/amount/type.
  const SplitProposal* location_split = nullptr;
  const SplitProposal* time_split = nullptr;
  for (const auto& p : proposals) {
    if (p.attribute == 3) location_split = &p;
    if (p.attribute == 0) time_split = &p;
  }
  ASSERT_NE(time_split, nullptr);
  ASSERT_NE(location_split, nullptr);
  EXPECT_GT(time_split->benefit, location_split->benefit);
  EXPECT_LT(location_split->delta.fraud, 0);
  // The time split produces the paper's r11/r12:
  // [18:00,18:03] and [18:05,18:05].
  ASSERT_EQ(time_split->replacements.size(), 2u);
  EXPECT_EQ(time_split->replacements[0].condition(0).interval(),
            (Interval{18 * 60, 18 * 60 + 3}));
  EXPECT_EQ(time_split->replacements[1].condition(0).interval(),
            (Interval{18 * 60 + 5, 18 * 60 + 5}));
}

TEST_F(PaperSpecializeTest, TypeSplitUsesOntologyCover) {
  SpecializeOptions options;
  SpecializationEngine engine(*ex_.relation, options);
  CaptureTracker tracker(*ex_.relation, rules_);
  auto proposals = engine.RankSplits(tracker, 0, 2);
  const SplitProposal* type_split = nullptr;
  for (const auto& p : proposals) {
    if (p.attribute == 2) type_split = &p;
  }
  ASSERT_NE(type_split, nullptr);
  // Excluding "Online, with CCV" from type <= T covers the remaining leaves
  // with two concepts (the paper's "Offline" + "Online, no CCV" — our DAG
  // also admits "Offline" + "No code").
  EXPECT_EQ(type_split->replacements.size(), 2u);
  for (const Rule& r : type_split->replacements) {
    ConceptId c = r.condition(2).concept_id();
    EXPECT_FALSE(ex_.type_ontology->Contains(
        c, ex_.type_ontology->Find("Online, with CCV").ValueOrDie()));
  }
}

TEST_F(PaperSpecializeTest, FullSpecializationExcludesLegitimates) {
  SpecializeOptions options;
  SpecializationEngine engine(*ex_.relation, options);
  CaptureTracker tracker(*ex_.relation, rules_);
  EditLog log;
  ScriptedExpert expert;  // accepts the top-benefit split each time
  SpecializeStats stats = engine.Run(&tracker, &expert, &log);
  const RuleSet& rules = tracker.rules();
  EXPECT_EQ(stats.tuples, 3u);
  for (size_t r : {2u, 4u, 9u}) {
    EXPECT_FALSE(rules.CapturesRow(*ex_.relation, r)) << r;
  }
  // The fraudulent rows previously captured stay captured.
  for (size_t r : {0u, 1u, 3u, 5u, 6u, 7u}) {
    EXPECT_TRUE(rules.CapturesRow(*ex_.relation, r)) << r;
  }
  EXPECT_GT(log.CountKind(EditKind::kSplitRule), 0u);
}

}  // namespace
}  // namespace rudolf
