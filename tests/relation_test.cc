#include "relation/relation.h"

#include <gtest/gtest.h>

#include "ontology/builders.h"
#include "relation/builder.h"

namespace rudolf {
namespace {

std::shared_ptr<const Schema> SmallSchema() {
  auto schema = std::make_shared<Schema>();
  EXPECT_TRUE(schema->AddNumeric("time", NumericDisplay::kClock).ok());
  EXPECT_TRUE(schema->AddNumeric("amount").ok());
  std::shared_ptr<const Ontology> types = BuildTransactionTypeOntology();
  EXPECT_TRUE(schema->AddCategorical("type", types).ok());
  return schema;
}

TEST(Schema, RejectsDuplicateNames) {
  Schema s;
  ASSERT_TRUE(s.AddNumeric("a").ok());
  EXPECT_EQ(s.AddNumeric("a").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(s.AddCategorical("a", BuildClientTypeOntology()).code(),
            StatusCode::kAlreadyExists);
}

TEST(Schema, RejectsEmptyName) {
  Schema s;
  EXPECT_FALSE(s.AddNumeric("").ok());
}

TEST(Schema, RejectsNullOntology) {
  Schema s;
  EXPECT_FALSE(s.AddCategorical("c", nullptr).ok());
}

TEST(Schema, IndexOf) {
  auto schema = SmallSchema();
  EXPECT_EQ(schema->IndexOf("amount").ValueOrDie(), 1u);
  EXPECT_FALSE(schema->IndexOf("missing").ok());
}

TEST(Schema, EquivalentTo) {
  auto a = SmallSchema();
  auto b = SmallSchema();
  EXPECT_TRUE(a->EquivalentTo(*b));
  Schema c;
  ASSERT_TRUE(c.AddNumeric("time").ok());  // missing clock display
  EXPECT_FALSE(a->EquivalentTo(c));
}

TEST(Relation, AppendAndGet) {
  auto schema = SmallSchema();
  Relation rel(schema);
  ConceptId leaf =
      schema->attribute(2).ontology->Find("Online, no CCV").ValueOrDie();
  ASSERT_TRUE(rel.AppendRow({600, 25, leaf}, Label::kFraud, Label::kFraud, 800)
                  .ok());
  EXPECT_EQ(rel.NumRows(), 1u);
  EXPECT_EQ(rel.NumColumns(), 3u);
  EXPECT_EQ(rel.Get(0, 0), 600);
  EXPECT_EQ(rel.Get(0, 1), 25);
  EXPECT_EQ(rel.TrueLabel(0), Label::kFraud);
  EXPECT_EQ(rel.VisibleLabel(0), Label::kFraud);
  EXPECT_EQ(rel.Score(0), 800);
  EXPECT_EQ(rel.GetRow(0), (Tuple{600, 25, leaf}));
}

TEST(Relation, AppendRejectsWrongArity) {
  Relation rel(SmallSchema());
  EXPECT_FALSE(rel.AppendRow({1, 2}).ok());
}

TEST(Relation, AppendRejectsInvalidConcept) {
  auto schema = SmallSchema();
  Relation rel(schema);
  ConceptId leaf = schema->attribute(2).ontology->Leaves()[0];
  ASSERT_TRUE(rel.AppendRow({1, 2, leaf}).ok());
  // 2^32 + c and -2^32 + c wrap onto the valid id c if the cell is cast to
  // ConceptId before it is checked.
  const CellValue kTwo32 = CellValue{1} << 32;
  for (CellValue bad : {CellValue{999999}, kTwo32 + leaf, -kTwo32 + leaf,
                        CellValue{-1}}) {
    EXPECT_FALSE(rel.AppendRow({1, 2, bad}).ok()) << bad;
    EXPECT_FALSE(
        rel.AppendBatch({{1}, {2}, {bad}}, {Label::kUnlabeled},
                        {Label::kUnlabeled}, {0})
            .ok())
        << bad;
    EXPECT_EQ(rel.NumRows(), 1u) << bad;
  }
}

TEST(Relation, LabelQueriesAndMutation) {
  auto schema = SmallSchema();
  Relation rel(schema);
  ConceptId leaf = schema->attribute(2).ontology->Leaves()[0];
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(rel.AppendRow({i, i * 10, leaf},
                              i % 2 == 0 ? Label::kFraud : Label::kLegitimate)
                    .ok());
  }
  EXPECT_EQ(rel.RowsWithTrueLabel(Label::kFraud), (std::vector<size_t>{0, 2, 4}));
  EXPECT_EQ(rel.CountVisible(Label::kUnlabeled), 5u);
  rel.SetVisibleLabel(1, Label::kLegitimate);
  EXPECT_EQ(rel.RowsWithVisibleLabel(Label::kLegitimate),
            (std::vector<size_t>{1}));
  EXPECT_EQ(rel.CountVisible(Label::kUnlabeled), 4u);
}

TEST(Relation, SetCellAndScore) {
  auto schema = SmallSchema();
  Relation rel(schema);
  ConceptId leaf = schema->attribute(2).ontology->Leaves()[0];
  ASSERT_TRUE(rel.AppendRow({1, 2, leaf}).ok());
  rel.SetCell(0, 1, 77);
  rel.SetScore(0, 500);
  EXPECT_EQ(rel.Get(0, 1), 77);
  EXPECT_EQ(rel.Score(0), 500);
}

TEST(Relation, RowToStringFormatsCells) {
  auto schema = SmallSchema();
  Relation rel(schema);
  ConceptId leaf =
      schema->attribute(2).ontology->Find("Offline, with PIN").ValueOrDie();
  ASSERT_TRUE(
      rel.AppendRow({18 * 60 + 4, 112, leaf}, Label::kFraud, Label::kFraud).ok());
  std::string s = rel.RowToString(0);
  EXPECT_NE(s.find("time=18:04"), std::string::npos);
  EXPECT_NE(s.find("amount=112"), std::string::npos);
  EXPECT_NE(s.find("Offline, with PIN"), std::string::npos);
  EXPECT_NE(s.find("[fraud]"), std::string::npos);
}

TEST(Labels, ParseAndName) {
  EXPECT_EQ(ParseLabel("fraud").ValueOrDie(), Label::kFraud);
  EXPECT_EQ(ParseLabel("FRAUDULENT").ValueOrDie(), Label::kFraud);
  EXPECT_EQ(ParseLabel("legit").ValueOrDie(), Label::kLegitimate);
  EXPECT_EQ(ParseLabel("").ValueOrDie(), Label::kUnlabeled);
  EXPECT_FALSE(ParseLabel("bogus").ok());
  EXPECT_STREQ(LabelName(Label::kLegitimate), "legitimate");
}

TEST(Cells, FormatAndParseRoundTrip) {
  auto schema = SmallSchema();
  const AttributeDef& clock = schema->attribute(0);
  const AttributeDef& amount = schema->attribute(1);
  const AttributeDef& type = schema->attribute(2);
  EXPECT_EQ(FormatCell(clock, 19 * 60 + 8), "19:08");
  EXPECT_EQ(ParseCell(clock, "19:08").ValueOrDie(), 19 * 60 + 8);
  EXPECT_EQ(FormatCell(amount, 42), "42");
  EXPECT_EQ(ParseCell(amount, "42").ValueOrDie(), 42);
  ConceptId leaf = type.ontology->Find("Online, no CCV").ValueOrDie();
  EXPECT_EQ(FormatCell(type, leaf), "Online, no CCV");
  EXPECT_EQ(ParseCell(type, "Online, no CCV").ValueOrDie(),
            static_cast<CellValue>(leaf));
  EXPECT_FALSE(ParseCell(type, "Nonexistent").ok());
}

TEST(RowBuilder, BuildsByName) {
  auto cc = MakeCreditCardSchema();
  auto tuple = RowBuilder(cc.schema)
                   .SetClock("time", "18:02")
                   .Set("amount", 107)
                   .SetConcept("type", "Online, no CCV")
                   .SetConcept("location", "Online Store")
                   .SetConcept("client_type", "Gold")
                   .Set("prev_actions", 3)
                   .Set("risk_score", 500)
                   .Build();
  ASSERT_TRUE(tuple.ok()) << tuple.status().ToString();
  EXPECT_EQ((*tuple)[cc.layout.time], 18 * 60 + 2);
  EXPECT_EQ((*tuple)[cc.layout.amount], 107);
}

TEST(RowBuilder, FailsWhenCategoricalUnset) {
  auto cc = MakeCreditCardSchema();
  auto tuple = RowBuilder(cc.schema).Set("amount", 10).Build();
  EXPECT_FALSE(tuple.ok());
}

TEST(RowBuilder, LatchesFirstError) {
  auto cc = MakeCreditCardSchema();
  auto tuple = RowBuilder(cc.schema)
                   .SetConcept("type", "No Such Concept")
                   .Set("amount", 10)
                   .Build();
  EXPECT_FALSE(tuple.ok());
  EXPECT_EQ(tuple.status().code(), StatusCode::kNotFound);
}

TEST(RowBuilder, RejectsKindMismatch) {
  auto cc = MakeCreditCardSchema();
  EXPECT_FALSE(RowBuilder(cc.schema).Set("type", 1).Build().ok());
  EXPECT_FALSE(RowBuilder(cc.schema).SetConcept("amount", "Gold").Build().ok());
}

TEST(CreditCardSchema, LayoutMatchesSchema) {
  auto cc = MakeCreditCardSchema();
  EXPECT_EQ(cc.schema->arity(), 7u);
  EXPECT_EQ(cc.schema->attribute(cc.layout.time).name, "time");
  EXPECT_EQ(cc.schema->attribute(cc.layout.amount).name, "amount");
  EXPECT_EQ(cc.schema->attribute(cc.layout.type).name, "type");
  EXPECT_EQ(cc.schema->attribute(cc.layout.location).name, "location");
  EXPECT_EQ(cc.schema->attribute(cc.layout.client_type).name, "client_type");
  EXPECT_EQ(cc.schema->attribute(cc.layout.prev_actions).name, "prev_actions");
  EXPECT_EQ(cc.schema->attribute(cc.layout.risk_score).name, "risk_score");
  EXPECT_EQ(cc.schema->attribute(cc.layout.time).display, NumericDisplay::kClock);
}

}  // namespace
}  // namespace rudolf
