#include "ontology/ontology.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "ontology/builders.h"
#include "workload/intrusion.h"

namespace rudolf {
namespace {

// A small diamond DAG for the generic tests: Top over {A, B}; A over
// {A1, AB}; B over {AB, B1} — AB has both A and B as parents.
struct Diamond {
  Ontology o{"test", "Top"};
  ConceptId a, b, a1, ab, b1;
  Diamond() {
    a = o.AddConcept("A", o.top()).ValueOrDie();
    b = o.AddConcept("B", o.top()).ValueOrDie();
    a1 = o.AddConcept("A1", a).ValueOrDie();
    ab = o.AddConcept("AB", {a, b}).ValueOrDie();
    b1 = o.AddConcept("B1", b).ValueOrDie();
  }
};

TEST(Ontology, TopExistsWithName) {
  Ontology o("x", "Everything");
  EXPECT_EQ(o.size(), 1u);
  EXPECT_EQ(o.NameOf(o.top()), "Everything");
  EXPECT_TRUE(o.IsLeaf(o.top()));
}

TEST(Ontology, AddConceptRejectsUnknownParent) {
  Ontology o;
  EXPECT_FALSE(o.AddConcept("bad", static_cast<ConceptId>(99)).ok());
}

TEST(Ontology, AddConceptRejectsDuplicateName) {
  Ontology o;
  ASSERT_TRUE(o.AddConcept("A", o.top()).ok());
  EXPECT_EQ(o.AddConcept("A", o.top()).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(Ontology, AddConceptRejectsEmptyParents) {
  Ontology o;
  EXPECT_FALSE(o.AddConcept("orphan", std::vector<ConceptId>{}).ok());
}

TEST(Ontology, AddConceptRejectsDuplicateParents) {
  Ontology o;
  EXPECT_FALSE(o.AddConcept("dup", {o.top(), o.top()}).ok());
}

TEST(Ontology, FindByName) {
  Diamond d;
  EXPECT_EQ(d.o.Find("AB").ValueOrDie(), d.ab);
  EXPECT_EQ(d.o.Find("nope").status().code(), StatusCode::kNotFound);
}

TEST(Ontology, ContainsIsReflexive) {
  Diamond d;
  for (ConceptId c = 0; c < d.o.size(); ++c) EXPECT_TRUE(d.o.Contains(c, c));
}

TEST(Ontology, ContainsFollowsEdges) {
  Diamond d;
  EXPECT_TRUE(d.o.Contains(d.o.top(), d.ab));
  EXPECT_TRUE(d.o.Contains(d.a, d.a1));
  EXPECT_TRUE(d.o.Contains(d.a, d.ab));
  EXPECT_TRUE(d.o.Contains(d.b, d.ab));
  EXPECT_FALSE(d.o.Contains(d.a, d.b1));
  EXPECT_FALSE(d.o.Contains(d.a1, d.a));  // not symmetric
  EXPECT_FALSE(d.o.Contains(d.a1, d.ab));
}

TEST(Ontology, LeavesAreChildless) {
  Diamond d;
  std::vector<ConceptId> leaves = d.o.Leaves();
  EXPECT_EQ(leaves, (std::vector<ConceptId>{d.a1, d.ab, d.b1}));
}

TEST(Ontology, LeavesUnder) {
  Diamond d;
  EXPECT_EQ(d.o.LeavesUnder(d.a), (std::vector<ConceptId>{d.a1, d.ab}));
  EXPECT_EQ(d.o.LeavesUnder(d.b), (std::vector<ConceptId>{d.ab, d.b1}));
  EXPECT_EQ(d.o.LeavesUnder(d.a1), (std::vector<ConceptId>{d.a1}));
  EXPECT_EQ(d.o.LeafCount(d.o.top()), 3u);
}

// LeafUnder selects from the leaf-set bitmap what LeavesUnder lists: the
// k-th leaf of every concept, for every k, of the diamond and of every
// builder ontology, a 463-concept geo ontology among them (its leaf sets
// span eight words).
TEST(Ontology, LeafUnderIsTheKthOfLeavesUnder) {
  Diamond d;
  GeoOntologyOptions wide;
  wide.num_regions = 8;
  wide.num_cities_per_region = 8;
  std::vector<std::unique_ptr<Ontology>> ontologies;
  ontologies.push_back(BuildTransactionTypeOntology());
  ontologies.push_back(BuildGeoOntology());
  ontologies.push_back(BuildGeoOntology(wide));
  ontologies.push_back(BuildClientTypeOntology());
  ontologies.push_back(BuildProtocolOntology());
  ontologies.push_back(BuildAddressOntology());
  ASSERT_EQ(ontologies[2]->size(), 463u);
  std::vector<const Ontology*> all = {&d.o};
  for (const auto& o : ontologies) all.push_back(o.get());
  for (const Ontology* o : all) {
    for (ConceptId c = 0; c < o->size(); ++c) {
      const std::vector<ConceptId> leaves = o->LeavesUnder(c);
      ASSERT_EQ(o->LeafCount(c), leaves.size()) << o->NameOf(c);
      for (size_t k = 0; k < leaves.size(); ++k) {
        ASSERT_EQ(o->LeafUnder(c, k), leaves[k])
            << o->NameOf(c) << " leaf " << k;
      }
    }
  }
}

TEST(Ontology, DepthIsShortestPathFromTop) {
  Diamond d;
  EXPECT_EQ(d.o.Depth(d.o.top()), 0);
  EXPECT_EQ(d.o.Depth(d.a), 1);
  EXPECT_EQ(d.o.Depth(d.ab), 2);
}

TEST(Ontology, UpwardDistanceZeroWhenContained) {
  Diamond d;
  EXPECT_EQ(d.o.UpwardDistance(d.a, d.a1), 0);
  EXPECT_EQ(d.o.UpwardDistance(d.a, d.a), 0);
  EXPECT_EQ(d.o.UpwardDistance(d.o.top(), d.b1), 0);
}

TEST(Ontology, UpwardDistanceClimbsMinimally) {
  Diamond d;
  // From A1, B1 is only containable at Top: 2 steps (A1→A→Top).
  EXPECT_EQ(d.o.UpwardDistance(d.a1, d.b1), 2);
  // From A1, AB is containable at A: 1 step.
  EXPECT_EQ(d.o.UpwardDistance(d.a1, d.ab), 1);
  // From AB there are two 1-step options (A contains A1): 1 step.
  EXPECT_EQ(d.o.UpwardDistance(d.ab, d.a1), 1);
}

TEST(Ontology, NearestContainerReturnsTheClimbTarget) {
  Diamond d;
  EXPECT_EQ(d.o.NearestContainer(d.a1, d.ab), d.a);
  EXPECT_EQ(d.o.NearestContainer(d.a1, d.b1), d.o.top());
  EXPECT_EQ(d.o.NearestContainer(d.a, d.a1), d.a);  // already contains
}

TEST(Ontology, JoinPicksSmallestContainer) {
  Diamond d;
  EXPECT_EQ(d.o.Join(d.a1, d.ab), d.a);  // A has 2 leaves, Top has 3
  EXPECT_EQ(d.o.Join(d.a1, d.b1), d.o.top());
  EXPECT_EQ(d.o.Join(d.ab, d.b1), d.b);
  EXPECT_EQ(d.o.Join(d.a1, d.a1), d.a1);
}

TEST(Ontology, JoinAll) {
  Diamond d;
  EXPECT_EQ(d.o.JoinAll({d.a1, d.ab, d.b1}), d.o.top());
  EXPECT_EQ(d.o.JoinAll({d.ab}), d.ab);
  EXPECT_EQ(d.o.JoinAll({}), d.o.top());
}

TEST(Ontology, GreedyLeafCoverExcludesTarget) {
  Diamond d;
  // Cover all leaves except AB: need A1 and B1 (A and B both contain AB).
  std::vector<ConceptId> cover = d.o.GreedyLeafCover(d.o.top(), d.ab);
  std::sort(cover.begin(), cover.end());
  EXPECT_EQ(cover, (std::vector<ConceptId>{d.a1, d.b1}));
}

TEST(Ontology, GreedyLeafCoverUsesInternalConcepts) {
  Diamond d;
  // Excluding B1 from Top: A covers {A1, AB} in one concept.
  std::vector<ConceptId> cover = d.o.GreedyLeafCover(d.o.top(), d.b1);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0], d.a);
}

TEST(Ontology, GreedyLeafCoverWithinSubtree) {
  Diamond d;
  // Within A, excluding AB leaves only A1.
  EXPECT_EQ(d.o.GreedyLeafCover(d.a, d.ab), (std::vector<ConceptId>{d.a1}));
}

TEST(Ontology, GreedyLeafCoverEmptyWhenExcludeCoversAll) {
  Diamond d;
  EXPECT_TRUE(d.o.GreedyLeafCover(d.a1, d.a1).empty());
  EXPECT_TRUE(d.o.GreedyLeafCover(d.o.top(), d.o.top()).empty());
}

// --- Figure 1 transaction-type DAG ----------------------------------------

TEST(TypeOntology, HasFourLeavesAndTwoDimensions) {
  auto o = BuildTransactionTypeOntology();
  EXPECT_EQ(o->Leaves().size(), 4u);
  ConceptId online = o->Find("Online").ValueOrDie();
  ConceptId no_code = o->Find("No code").ValueOrDie();
  ConceptId on_no_ccv = o->Find("Online, no CCV").ValueOrDie();
  EXPECT_TRUE(o->Contains(online, on_no_ccv));
  EXPECT_TRUE(o->Contains(no_code, on_no_ccv));
}

TEST(TypeOntology, PaperDistanceExamples) {
  // Section 4.1: |Offline, with PIN − Online, with CCV| = 1 (via "With
  // code") and |Offline, without PIN − Online, with CCV| = 2 (via ⊤).
  auto o = BuildTransactionTypeOntology();
  ConceptId on_ccv = o->Find("Online, with CCV").ValueOrDie();
  ConceptId off_pin = o->Find("Offline, with PIN").ValueOrDie();
  ConceptId off_no_pin = o->Find("Offline, without PIN").ValueOrDie();
  EXPECT_EQ(o->UpwardDistance(on_ccv, off_pin), 1);
  EXPECT_EQ(o->NameOf(o->NearestContainer(on_ccv, off_pin)), "With code");
  EXPECT_EQ(o->UpwardDistance(on_ccv, off_no_pin), 2);
  EXPECT_EQ(o->NearestContainer(on_ccv, off_no_pin), o->top());
}

TEST(TypeOntology, Example47Cover) {
  // Example 4.7: to exclude "Online, with CCV" from ⊤, the concepts
  // "Offline" and "Online, no CCV" cover the remaining leaves.
  auto o = BuildTransactionTypeOntology();
  ConceptId exclude = o->Find("Online, with CCV").ValueOrDie();
  std::vector<ConceptId> cover = o->GreedyLeafCover(o->top(), exclude);
  std::vector<std::string> names;
  for (ConceptId c : cover) names.push_back(o->NameOf(c));
  std::sort(names.begin(), names.end());
  // "No code" covers {Online no CCV, Offline without PIN}; together with
  // "Offline" (or "Offline, with PIN") all three remaining leaves are
  // covered by two concepts, matching the paper's two-concept cover.
  EXPECT_EQ(cover.size(), 2u);
  // All remaining leaves covered, the excluded one in none of them.
  for (ConceptId c : cover) {
    EXPECT_FALSE(o->Contains(c, exclude));
  }
  std::vector<ConceptId> all = o->Leaves();
  for (ConceptId leaf : all) {
    if (leaf == exclude) continue;
    bool in_cover = false;
    for (ConceptId c : cover) in_cover = in_cover || o->Contains(c, leaf);
    EXPECT_TRUE(in_cover) << o->NameOf(leaf);
  }
}

TEST(GeoOntology, VenueLeavesHaveTwoParents) {
  GeoOntologyOptions opt;
  opt.num_regions = 2;
  opt.num_cities_per_region = 2;
  opt.num_venues_per_city = 6;
  auto o = BuildGeoOntology(opt);
  ConceptId gas = o->Find("Gas Station").ValueOrDie();
  ConceptId city = o->Find("City 1.1").ValueOrDie();
  ConceptId venue = o->Find("Gas Station City 1.1 #1").ValueOrDie();
  EXPECT_TRUE(o->Contains(gas, venue));
  EXPECT_TRUE(o->Contains(city, venue));
  EXPECT_EQ(o->ParentsOf(venue).size(), 2u);
}

TEST(GeoOntology, SisterVenuesOneStepViaCategory) {
  GeoOntologyOptions opt;
  opt.num_regions = 2;
  opt.num_cities_per_region = 2;
  opt.num_venues_per_city = 12;  // two venues per category per city
  auto o = BuildGeoOntology(opt);
  // The paper's "Gas Station A" vs "Gas Station B": two venues of the same
  // category are 1 generalization step apart (via the category).
  ConceptId a = o->Find("Gas Station City 1.1 #1").ValueOrDie();
  ConceptId b = o->Find("Gas Station City 1.2 #1").ValueOrDie();
  EXPECT_EQ(o->UpwardDistance(a, b), 1);
  EXPECT_EQ(o->NameOf(o->NearestContainer(a, b)), "Gas Station");
}

TEST(ClientOntology, Shape) {
  auto o = BuildClientTypeOntology();
  EXPECT_EQ(o->Leaves().size(), 5u);
  EXPECT_TRUE(o->Contains(o->Find("Private").ValueOrDie(),
                          o->Find("Gold").ValueOrDie()));
}

TEST(Ontology, MutationInvalidatesCaches) {
  Ontology o;
  ConceptId a = o.AddConcept("A", o.top()).ValueOrDie();
  EXPECT_TRUE(o.IsLeaf(a));
  EXPECT_EQ(o.LeafCount(o.top()), 1u);
  ConceptId a1 = o.AddConcept("A1", a).ValueOrDie();
  EXPECT_FALSE(o.IsLeaf(a));
  EXPECT_EQ(o.LeafCount(o.top()), 1u);
  EXPECT_TRUE(o.Contains(a, a1));
  ConceptId b = o.AddConcept("B", o.top()).ValueOrDie();
  EXPECT_EQ(o.LeafCount(o.top()), 2u);
  EXPECT_FALSE(o.Contains(a, b));
  // A1 climbs two edges to reach B's container ⊤ and B climbs one: 1.5. A
  // new concept lengthens every row of the distance table, so a table kept
  // across AddConcept would misread both pairs below.
  EXPECT_EQ(o.DistanceTable()[a1 * o.size() + b], 1.5f);
  ConceptId c = o.AddConcept("C", b).ValueOrDie();
  EXPECT_EQ(o.DistanceTable()[a1 * o.size() + b], 1.5f);
  EXPECT_EQ(o.DistanceTable()[a1 * o.size() + c], 2.0f);
}

}  // namespace
}  // namespace rudolf
