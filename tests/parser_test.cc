#include "rules/parser.h"

#include <gtest/gtest.h>

#include "workload/paper_example.h"

namespace rudolf {
namespace {

class ParserTest : public ::testing::Test {
 protected:
  ParserTest() : ex_(MakePaperExample()) {}
  const Schema& schema() const { return *ex_.schema; }
  PaperExample ex_;
};

TEST_F(ParserTest, IntervalCondition) {
  auto r = ParseRule(schema(), "amount in [5, 10]");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->condition(1).interval(), (Interval{5, 10}));
}

TEST_F(ParserTest, ComparisonOperators) {
  EXPECT_EQ(ParseRule(schema(), "amount >= 110")->condition(1).interval(),
            Interval::AtLeast(110));
  EXPECT_EQ(ParseRule(schema(), "amount <= 50")->condition(1).interval(),
            Interval::AtMost(50));
  EXPECT_EQ(ParseRule(schema(), "amount = 7")->condition(1).interval(),
            Interval::Point(7));
  // Strict comparisons desugar over the discrete domain.
  EXPECT_EQ(ParseRule(schema(), "amount > 7")->condition(1).interval(),
            Interval::AtLeast(8));
  EXPECT_EQ(ParseRule(schema(), "amount < 7")->condition(1).interval(),
            Interval::AtMost(6));
}

TEST_F(ParserTest, ClockValues) {
  auto r = ParseRule(schema(), "time in [18:00, 18:05]");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->condition(0).interval(), (Interval{18 * 60, 18 * 60 + 5}));
}

TEST_F(ParserTest, QuotedConceptNames) {
  auto r = ParseRule(schema(), "type <= 'Online, no CCV'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ex_.type_ontology->NameOf(r->condition(2).concept_id()),
            "Online, no CCV");
  auto rd = ParseRule(schema(), "location = \"GAS Station A\"");
  ASSERT_TRUE(rd.ok());
  EXPECT_EQ(ex_.location_ontology->NameOf(rd->condition(3).concept_id()),
            "GAS Station A");
}

TEST_F(ParserTest, CategoricalEqualsAndLeq) {
  auto eq = ParseRule(schema(), "type = 'Online'");
  auto leq = ParseRule(schema(), "type <= 'Online'");
  ASSERT_TRUE(eq.ok());
  ASSERT_TRUE(leq.ok());
  EXPECT_EQ(*eq, *leq);  // both denote containment
}

TEST_F(ParserTest, TopKeyword) {
  auto r = ParseRule(schema(), "type <= T && amount <= T");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, Rule::Trivial(schema()));
}

TEST_F(ParserTest, Conjunction) {
  auto r = ParseRule(schema(),
                     "time in [18:00,18:05] && amount >= 110 && type <= 'Online'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->NumNonTrivial(schema()), 3u);
}

TEST_F(ParserTest, AndKeywordAlsoAccepted) {
  auto r = ParseRule(schema(), "amount >= 5 AND type <= 'Online'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->NumNonTrivial(schema()), 2u);
}

TEST_F(ParserTest, TrueAndEmptyParseToTrivial) {
  EXPECT_EQ(*ParseRule(schema(), "TRUE"), Rule::Trivial(schema()));
  EXPECT_EQ(*ParseRule(schema(), "true"), Rule::Trivial(schema()));
  EXPECT_EQ(*ParseRule(schema(), "   "), Rule::Trivial(schema()));
}

TEST_F(ParserTest, NegativeNumbers) {
  auto r = ParseRule(schema(), "amount >= -5");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->condition(1).interval(), Interval::AtLeast(-5));
}

TEST_F(ParserTest, RejectsUnknownAttribute) {
  auto r = ParseRule(schema(), "bogus >= 1");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(ParserTest, RejectsUnknownConcept) {
  EXPECT_FALSE(ParseRule(schema(), "type <= 'Nope'").ok());
}

TEST_F(ParserTest, RejectsEmptyInterval) {
  EXPECT_FALSE(ParseRule(schema(), "amount in [10, 5]").ok());
}

// No value lies past the int64 ends, so these comparisons are empty
// intervals; desugaring them by v + 1 / v - 1 would overflow.
TEST_F(ParserTest, RejectsComparisonsPastTheInt64Range) {
  for (const char* text : {"amount > T", "amount > 9223372036854775807",
                           "amount < -9223372036854775808"}) {
    auto r = ParseRule(schema(), text);
    ASSERT_FALSE(r.ok()) << text << " parsed as " << r->ToString(schema());
    const std::string message = r.status().message();
    EXPECT_NE(message.find("empty interval for attribute 'amount'"),
              std::string::npos)
        << message;
  }
  // The comparisons one step inside the range still hold for one value.
  EXPECT_EQ(ParseRule(schema(), "amount > 9223372036854775806")
                ->condition(1)
                .interval(),
            Interval::Point(kPosInf));
  EXPECT_EQ(ParseRule(schema(), "amount < -9223372036854775807")
                ->condition(1)
                .interval(),
            Interval::Point(kNegInf));
}

TEST_F(ParserTest, RejectsMalformedInterval) {
  EXPECT_FALSE(ParseRule(schema(), "amount in [5").ok());
  EXPECT_FALSE(ParseRule(schema(), "amount in 5,6]").ok());
  EXPECT_FALSE(ParseRule(schema(), "amount in [5 6]").ok());
}

TEST_F(ParserTest, RejectsStrayTokens) {
  EXPECT_FALSE(ParseRule(schema(), "amount >= 5 extra").ok());
  EXPECT_FALSE(ParseRule(schema(), "amount >= 5 & type <= T").ok());
  EXPECT_FALSE(ParseRule(schema(), "&& amount >= 5").ok());
}

TEST_F(ParserTest, RejectsCategoricalInequality) {
  EXPECT_FALSE(ParseRule(schema(), "type > 'Online'").ok());
}

TEST_F(ParserTest, RejectsNumericValueForConcept) {
  EXPECT_FALSE(ParseRule(schema(), "type <= 42").ok());
}

TEST_F(ParserTest, RejectsUnterminatedQuote) {
  EXPECT_FALSE(ParseRule(schema(), "type <= 'Online").ok());
}

TEST_F(ParserTest, RejectsInOnCategorical) {
  EXPECT_FALSE(ParseRule(schema(), "type in [1,2]").ok());
}

TEST_F(ParserTest, RoundTripsThroughToString) {
  const char* texts[] = {
      "time in [18:00,18:05] && amount >= 110",
      "amount in [40,90] && type <= 'Offline'",
      "location <= 'Gas Station'",
      "time = 12:30 && type = 'Online, with CCV'",
      "TRUE",
  };
  for (const char* text : texts) {
    Rule original = ParseRule(schema(), text).ValueOrDie();
    Rule reparsed =
        ParseRule(schema(), original.ToString(schema())).ValueOrDie();
    EXPECT_EQ(original, reparsed) << text;
  }
}

}  // namespace
}  // namespace rudolf
