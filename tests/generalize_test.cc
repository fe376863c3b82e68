#include "core/generalize.h"

#include <gtest/gtest.h>

#include "expert/scripted_expert.h"
#include "rules/parser.h"
#include "workload/paper_example.h"

namespace rudolf {
namespace {

class GeneralizeTest : public ::testing::Test {
 protected:
  GeneralizeTest() : ex_(MakePaperExample()) {}

  Rule Parse(const std::string& text) {
    return ParseRule(*ex_.schema, text).ValueOrDie();
  }

  GeneralizeStats RunEngine(RuleSet* rules, Expert* expert,
                            GeneralizeOptions options = {}) {
    GeneralizationEngine engine(*ex_.relation, options);
    CaptureTracker tracker(*ex_.relation, *rules);
    GeneralizeStats stats = engine.Run(&tracker, expert, &log_);
    *rules = tracker.rules();
    return stats;
  }

  PaperExample ex_;
  EditLog log_;
};

TEST_F(GeneralizeTest, NoUncapturedFraudIsANoOp) {
  RuleSet rules;
  rules.AddRule(Rule::Trivial(*ex_.schema));  // captures everything
  ScriptedExpert expert;
  GeneralizeStats stats = RunEngine(&rules, &expert);
  EXPECT_EQ(stats.clusters, 0u);
  EXPECT_EQ(stats.proposals, 0u);
  EXPECT_EQ(log_.size(), 0u);
}

TEST_F(GeneralizeTest, AcceptedProposalsCoverAllClusters) {
  RuleSet rules = ex_.rules;
  ScriptedExpert expert;
  GeneralizeStats stats = RunEngine(&rules, &expert);
  EXPECT_GT(stats.clusters, 0u);
  EXPECT_EQ(stats.skipped_clusters, 0u);
  for (size_t r : ex_.relation->RowsWithVisibleLabel(Label::kFraud)) {
    EXPECT_TRUE(rules.CapturesRow(*ex_.relation, r)) << r;
  }
}

TEST_F(GeneralizeTest, EditsAreLoggedPerChangedAttribute) {
  RuleSet rules;
  rules.AddRule(Parse("time in [18:00,18:05] && amount >= 110"));
  // Cover only rows 0..1 by restricting to a prefix of 3 rows; a generous
  // threshold keeps them in one cluster.
  GeneralizeOptions coarse;
  coarse.clustering.leader_threshold = 3.0;
  GeneralizationEngine engine(*ex_.relation, coarse);
  CaptureTracker tracker(*ex_.relation, rules, 3);
  ScriptedExpert expert;
  engine.Run(&tracker, &expert, &log_);
  // Only amount needed to change.
  EXPECT_EQ(log_.size(), 1u);
  EXPECT_EQ(log_.edit(0).kind, EditKind::kModifyCondition);
  EXPECT_EQ(log_.edit(0).attribute, 1u);
  EXPECT_EQ(log_.edit(0).source, EditSource::kSystem);
}

TEST_F(GeneralizeTest, RejectionsFallThroughToNewRule) {
  RuleSet rules = ex_.rules;
  ScriptedExpert expert;
  // Reject every proposal for the first cluster (3 candidates + the new-rule
  // offer is the 4th; accept it).
  GeneralizationReview reject;
  reject.action = GeneralizationReview::Action::kReject;
  size_t initial_rules = rules.size();
  for (int i = 0; i < 3; ++i) expert.PushGeneralization(reject);
  GeneralizeStats stats = RunEngine(&rules, &expert);
  EXPECT_GT(stats.rejected, 0u);
  EXPECT_GE(stats.new_rules, 1u);
  EXPECT_GT(rules.size(), initial_rules);
  EXPECT_GT(log_.CountKind(EditKind::kAddRule), 0u);
}

TEST_F(GeneralizeTest, RejectingEverythingSkipsCluster) {
  RuleSet rules = ex_.rules;
  ScriptedExpert expert;
  GeneralizationReview reject;
  reject.action = GeneralizationReview::Action::kReject;
  // Enough rejections to exhaust candidates and the new-rule offers of all
  // clusters.
  for (int i = 0; i < 40; ++i) expert.PushGeneralization(reject);
  GeneralizeStats stats = RunEngine(&rules, &expert);
  EXPECT_GT(stats.skipped_clusters, 0u);
  EXPECT_EQ(rules.size(), ex_.rules.size());
  EXPECT_EQ(log_.size(), 0u);
}

TEST_F(GeneralizeTest, NewRuleProposalSelectsExactlyTheRepresentative) {
  // With an empty rule set, the first cluster goes the new-rule route
  // (line 18); later clusters may instead generalize the rule it added.
  RuleSet rules;
  ScriptedExpert expert;
  GeneralizeStats stats = RunEngine(&rules, &expert);
  EXPECT_GE(stats.new_rules, 1u);
  EXPECT_LE(stats.new_rules, stats.clusters);
  // Rules capture all frauds and no legit/unlabeled rows beyond the
  // representatives' hulls (here: none).
  for (size_t r = 0; r < ex_.relation->NumRows(); ++r) {
    bool fraud = ex_.relation->VisibleLabel(r) == Label::kFraud;
    EXPECT_EQ(rules.CapturesRow(*ex_.relation, r), fraud) << r;
  }
}

TEST_F(GeneralizeTest, TopKLimitsCandidates) {
  GeneralizeOptions options;
  options.top_k = 1;
  GeneralizationEngine engine(*ex_.relation, options);
  CaptureTracker tracker(*ex_.relation, ex_.rules);
  Rule rep = Parse(
      "time in [18:02,18:03] && amount in [106,107] && "
      "type = 'Online, no CCV' && location = 'Online Store'");
  EXPECT_EQ(engine.RankCandidates(tracker, rep, 2).size(), 1u);
}

TEST_F(GeneralizeTest, RevisedRuleTakesPriorityOverProposal) {
  RuleSet rules = ex_.rules;
  ScriptedExpert expert;
  GeneralizationReview revised;
  revised.action = GeneralizationReview::Action::kAcceptRevised;
  revised.revised = Parse("time in [18:00,18:10] && amount >= 90");
  expert.PushGeneralization(revised);
  GeneralizeStats stats = RunEngine(&rules, &expert);
  EXPECT_GE(stats.revised, 1u);
  bool found = false;
  for (RuleId id : rules.LiveIds()) {
    if (rules.Get(id) == revised.revised) found = true;
  }
  EXPECT_TRUE(found);
  // Expert-revised edits are attributed to the expert.
  EXPECT_GT(log_.CountSource(EditSource::kExpert), 0u);
}

TEST_F(GeneralizeTest, NoOntologyModeNeverTouchesCategoricalConditions) {
  RuleSet rules;
  rules.AddRule(Parse("amount >= 200 && location = 'GAS Station A'"));
  GeneralizeOptions options;
  options.refine_categorical = false;
  ScriptedExpert expert;
  RunEngine(&rules, &expert, options);
  for (RuleId id : rules.LiveIds()) {
    const Condition& loc = rules.Get(id).condition(3);
    // Either the untouched original leaf or (for new rules) a leaf /
    // trivial condition — never a climbed internal concept like
    // "Gas Station".
    EXPECT_NE(ex_.location_ontology->NameOf(loc.concept_id()), "Gas Station");
  }
}

TEST_F(GeneralizeTest, NoOntologyRepresentativeDegradesToTrivial) {
  GeneralizeOptions options;
  options.refine_categorical = false;
  GeneralizationEngine engine(*ex_.relation, options);
  // Rows 7 (GAS Station B) and 9 (GAS Station A) disagree on location.
  Rule rep = engine.BuildRepresentative({7, 9});
  EXPECT_TRUE(rep.condition(3).IsTrivial(ex_.schema->attribute(3)));
  // Uniform categorical values stay.
  Rule rep2 = engine.BuildRepresentative({5, 6});
  EXPECT_EQ(ex_.location_ontology->NameOf(rep2.condition(3).concept_id()),
            "GAS Station B");
}

TEST_F(GeneralizeTest, ExpertSecondsAccumulate) {
  RuleSet rules = ex_.rules;
  ScriptedExpert expert;
  GeneralizationReview timed;
  timed.action = GeneralizationReview::Action::kAccept;
  timed.seconds = 7.5;
  expert.PushGeneralization(timed);
  GeneralizeStats stats = RunEngine(&rules, &expert);
  EXPECT_GE(stats.expert_seconds, 7.5);
}

TEST_F(GeneralizeTest, ProposalToStringMentionsRuleAndScore) {
  GeneralizationEngine engine(*ex_.relation, GeneralizeOptions{});
  CaptureTracker tracker(*ex_.relation, ex_.rules);
  Rule rep = Parse("time in [18:02,18:03] && amount in [106,107]");
  auto candidates = engine.RankCandidates(tracker, rep, 2);
  ASSERT_FALSE(candidates.empty());
  std::string s = candidates[0].ToString(*ex_.schema);
  EXPECT_NE(s.find("GENERALIZE"), std::string::npos);
  EXPECT_NE(s.find("score"), std::string::npos);
}

}  // namespace
}  // namespace rudolf
