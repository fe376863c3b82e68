#include "rules/rule_set.h"

#include <gtest/gtest.h>

#include "rules/parser.h"
#include "workload/paper_example.h"

namespace rudolf {
namespace {

class RuleSetTest : public ::testing::Test {
 protected:
  RuleSetTest() : ex_(MakePaperExample()) {}
  Rule Parse(const std::string& text) {
    return ParseRule(*ex_.schema, text).ValueOrDie();
  }
  PaperExample ex_;
};

TEST_F(RuleSetTest, AddAssignsSequentialIds) {
  RuleSet s;
  EXPECT_EQ(s.AddRule(Parse("amount >= 1")), 0u);
  EXPECT_EQ(s.AddRule(Parse("amount >= 2")), 1u);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.LiveIds(), (std::vector<RuleId>{0, 1}));
}

TEST_F(RuleSetTest, RemoveLeavesTombstone) {
  RuleSet s;
  RuleId a = s.AddRule(Parse("amount >= 1"));
  RuleId b = s.AddRule(Parse("amount >= 2"));
  EXPECT_TRUE(s.RemoveRule(a));
  EXPECT_FALSE(s.RemoveRule(a));  // already removed
  EXPECT_FALSE(s.IsLive(a));
  EXPECT_TRUE(s.IsLive(b));
  EXPECT_EQ(s.size(), 1u);
  // Ids are never reused.
  EXPECT_EQ(s.AddRule(Parse("amount >= 3")), 2u);
}

TEST_F(RuleSetTest, RemoveUnknownIdFails) {
  RuleSet s;
  EXPECT_FALSE(s.RemoveRule(42));
}

TEST_F(RuleSetTest, ReplaceAndMutableAccess) {
  RuleSet s;
  RuleId id = s.AddRule(Parse("amount >= 100"));
  s.Replace(id, Parse("amount >= 90"));
  EXPECT_EQ(s.Get(id).condition(1).interval(), Interval::AtLeast(90));
  Rule narrowed = s.Get(id);
  narrowed.set_condition(1, Condition::MakeNumeric({10, 20}));
  s.Replace(id, narrowed);
  EXPECT_EQ(s.Get(id).condition(1).interval(), (Interval{10, 20}));
}

TEST_F(RuleSetTest, CapturesIsUnionSemantics) {
  RuleSet s;
  s.AddRule(Parse("amount >= 200"));
  Tuple row0 = ex_.relation->GetRow(0);  // amount 107
  EXPECT_FALSE(s.Captures(*ex_.schema, row0));
  s.AddRule(Parse("amount in [100,150]"));
  EXPECT_TRUE(s.Captures(*ex_.schema, row0));
}

TEST_F(RuleSetTest, CapturesRowSkipsTombstones) {
  RuleSet s;
  RuleId id = s.AddRule(Parse("amount >= 1"));
  EXPECT_TRUE(s.CapturesRow(*ex_.relation, 0));
  s.RemoveRule(id);
  EXPECT_FALSE(s.CapturesRow(*ex_.relation, 0));
}

TEST_F(RuleSetTest, CapturingRulesReturnsAllMatches) {
  RuleSet s;
  RuleId a = s.AddRule(Parse("amount >= 100"));
  s.AddRule(Parse("amount >= 200"));
  RuleId c = s.AddRule(Parse("type <= 'Online'"));
  Tuple row0 = ex_.relation->GetRow(0);  // amount 107, Online no CCV
  EXPECT_EQ(s.CapturingRules(*ex_.schema, row0), (std::vector<RuleId>{a, c}));
}

TEST_F(RuleSetTest, PaperRulesCaptureExactlyTheShadedTuples) {
  // Example 2.2: rules capture only tuples 3 and 10 (0-based 2 and 9).
  std::vector<size_t> captured;
  for (size_t r = 0; r < ex_.relation->NumRows(); ++r) {
    if (ex_.rules.CapturesRow(*ex_.relation, r)) captured.push_back(r);
  }
  EXPECT_EQ(captured, (std::vector<size_t>{2, 9}));
}

TEST_F(RuleSetTest, ToStringListsLiveRules) {
  RuleSet s;
  s.AddRule(Parse("amount >= 1"));
  RuleId b = s.AddRule(Parse("amount >= 2"));
  s.RemoveRule(b);
  std::string text = s.ToString(*ex_.schema);
  EXPECT_NE(text.find("[0] amount >= 1"), std::string::npos);
  EXPECT_EQ(text.find("[1]"), std::string::npos);
}

TEST_F(RuleSetTest, EmptySet) {
  RuleSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.Captures(*ex_.schema, ex_.relation->GetRow(0)));
  EXPECT_TRUE(s.LiveIds().empty());
}

}  // namespace
}  // namespace rudolf
