#include <gtest/gtest.h>

#include <numeric>

#include "cluster/kmeans.h"
#include "cluster/leader.h"
#include "cluster/representative.h"
#include "cluster/strategy.h"
#include "cluster/streaming_kmeans.h"
#include "obs/metrics.h"
#include "ontology/builders.h"
#include "rules/parser.h"
#include "workload/intrusion.h"
#include "workload/paper_example.h"

namespace rudolf {
namespace {

// Validates a clustering output: non-empty groups that partition `rows`.
void ExpectPartition(const std::vector<std::vector<size_t>>& clusters,
                     const std::vector<size_t>& rows) {
  std::vector<size_t> flattened;
  for (const auto& c : clusters) {
    EXPECT_FALSE(c.empty());
    flattened.insert(flattened.end(), c.begin(), c.end());
  }
  std::sort(flattened.begin(), flattened.end());
  std::vector<size_t> sorted_rows = rows;
  std::sort(sorted_rows.begin(), sorted_rows.end());
  EXPECT_EQ(flattened, sorted_rows);
}

// Over a one-attribute schema, the tuple distance of two concepts must be
// their symmetric upward distance, whether it comes from the ontology's
// table or, above the table's size limit, from BFS.
void ExpectSymmetricUpwardDistance(std::shared_ptr<const Ontology> ontology) {
  SCOPED_TRACE(ontology->name());
  auto schema = std::make_shared<Schema>();
  ASSERT_TRUE(schema->AddCategorical("c", ontology).ok());
  TupleDistance metric(schema);
  for (ConceptId a = 0; a < ontology->size(); ++a) {
    for (ConceptId b = 0; b < ontology->size(); ++b) {
      double expected =
          (ontology->UpwardDistance(a, b) + ontology->UpwardDistance(b, a)) / 2.0;
      ASSERT_EQ(metric(Tuple{a}, Tuple{b}), expected)
          << ontology->NameOf(a) << " / " << ontology->NameOf(b);
    }
  }
}

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() : ex_(MakePaperExample()) {
    fraud_rows_ = ex_.relation->RowsWithVisibleLabel(Label::kFraud);
  }
  PaperExample ex_;
  std::vector<size_t> fraud_rows_;
};

TEST_F(ClusterTest, TupleDistanceZeroForIdenticalTuples) {
  TupleDistance metric(ex_.schema);
  Tuple t = ex_.relation->GetRow(0);
  EXPECT_DOUBLE_EQ(metric(t, t), 0.0);
}

TEST_F(ClusterTest, TupleDistanceIsSymmetric) {
  TupleDistance metric(ex_.schema);
  Tuple a = ex_.relation->GetRow(0);
  Tuple b = ex_.relation->GetRow(7);
  EXPECT_DOUBLE_EQ(metric(a, b), metric(b, a));
}

TEST_F(ClusterTest, TupleDistanceCombinesNumericAndOntological) {
  TupleDistance metric(ex_.schema);
  Tuple a = ex_.relation->GetRow(0);  // 18:02, 107, Online no CCV, Online Store
  Tuple b = ex_.relation->GetRow(1);  // 18:03, 106, same type/location
  // 1 minute + 1 dollar, no categorical difference.
  EXPECT_DOUBLE_EQ(metric(a, b), 2.0);
}

TEST_F(ClusterTest, TupleDistanceIsSymmetricUpwardDistanceOnEveryOntology) {
  GeoOntologyOptions wide;
  wide.num_regions = 8;
  wide.num_cities_per_region = 8;
  wide.num_venues_per_city = 6;
  std::shared_ptr<const Ontology> wide_geo = BuildGeoOntology(wide);
  ASSERT_EQ(wide_geo->size(), 463u);
  EXPECT_EQ(wide_geo->DistanceTable(), nullptr);  // takes the BFS fallback
  for (std::shared_ptr<const Ontology> ontology :
       {std::shared_ptr<const Ontology>(BuildGeoOntology()), wide_geo,
        std::shared_ptr<const Ontology>(BuildTransactionTypeOntology()),
        std::shared_ptr<const Ontology>(BuildClientTypeOntology()),
        std::shared_ptr<const Ontology>(BuildProtocolOntology()),
        std::shared_ptr<const Ontology>(BuildAddressOntology()),
        ex_.location_ontology}) {
    ExpectSymmetricUpwardDistance(ontology);
  }
}

TEST_F(ClusterTest, TupleDistancesOverOneSchemaShareTheOntologyTable) {
  std::shared_ptr<const Ontology> geo = BuildGeoOntology();
  auto schema = std::make_shared<Schema>();
  ASSERT_TRUE(schema->AddCategorical("location", geo).ok());
  const obs::Counter* builds =
      obs::MetricsRegistry::Default().GetCounter("ontology.distance_table.builds");
  uint64_t before = builds->Value();
  TupleDistance first(schema);
  const float* table = geo->DistanceTable();
  ASSERT_NE(table, nullptr);
  TupleDistance second(schema);
  EXPECT_EQ(geo->DistanceTable(), table);
  EXPECT_EQ(builds->Value() - before, 1u);
}

TEST_F(ClusterTest, ScaledWeightOfFullInt64RangeIsPositive) {
  // CSV cells take any int64, so max - min can exceed int64_t.
  auto schema = std::make_shared<Schema>();
  ASSERT_TRUE(schema->AddNumeric("wide").ok());
  Relation relation(schema);
  ASSERT_TRUE(relation.AppendRow(Tuple{-5'000'000'000'000'000'000}).ok());
  ASSERT_TRUE(relation.AppendRow(Tuple{5'000'000'000'000'000'000}).ok());
  DistanceOptions opt = ScaledDistanceOptions(relation, {0, 1});
  EXPECT_GT(opt.weights[0], 0.0);
  EXPECT_LT(opt.weights[0], 1e-18);
}

TEST_F(ClusterTest, ScaledWeightsNormalizeRanges) {
  DistanceOptions opt = ScaledDistanceOptions(*ex_.relation, fraud_rows_);
  TupleDistance metric(ex_.schema, opt);
  // With scaling, any two rows are within arity distance.
  for (size_t a : fraud_rows_) {
    for (size_t b : fraud_rows_) {
      EXPECT_LE(metric(ex_.relation->GetRow(a), ex_.relation->GetRow(b)),
                static_cast<double>(ex_.schema->arity()) + 1e-9);
    }
  }
}

TEST_F(ClusterTest, RepresentativeMatchesPaperTable) {
  // Example 4.4's third representative: rows 6,7,8 (0-based 5,6,7):
  // time [20:53,20:55], amount [44,48], Offline without PIN, GAS Station B.
  Rule rep = RepresentativeOfRows(*ex_.relation, {5, 6, 7});
  EXPECT_EQ(rep.condition(0).interval(),
            (Interval{20 * 60 + 53, 20 * 60 + 55}));
  EXPECT_EQ(rep.condition(1).interval(), (Interval{44, 48}));
  EXPECT_EQ(ex_.type_ontology->NameOf(rep.condition(2).concept_id()),
            "Offline, without PIN");
  EXPECT_EQ(ex_.location_ontology->NameOf(rep.condition(3).concept_id()),
            "GAS Station B");
}

TEST_F(ClusterTest, RepresentativeJoinsDifferingConcepts) {
  // Rows 7 (GAS Station B) and 9 (GAS Station A) join at "Gas Station".
  Rule rep = RepresentativeOfRows(*ex_.relation, {7, 9});
  EXPECT_EQ(ex_.location_ontology->NameOf(rep.condition(3).concept_id()),
            "Gas Station");
}

TEST_F(ClusterTest, RepresentativeContainsEveryMember) {
  Rule rep = RepresentativeOfRows(*ex_.relation, fraud_rows_);
  for (size_t r : fraud_rows_) {
    EXPECT_TRUE(rep.MatchesRow(*ex_.relation, r)) << r;
  }
}

TEST_F(ClusterTest, RepresentativeOfTuplesAgreesWithRows) {
  std::vector<Tuple> tuples;
  for (size_t r : fraud_rows_) tuples.push_back(ex_.relation->GetRow(r));
  EXPECT_EQ(RepresentativeOfTuples(*ex_.schema, tuples),
            RepresentativeOfRows(*ex_.relation, fraud_rows_));
}

TEST_F(ClusterTest, LeaderSeparatesTheTwoAttacks) {
  TupleDistance metric(ex_.schema,
                       ScaledDistanceOptions(*ex_.relation, fraud_rows_));
  auto clusters = LeaderCluster(*ex_.relation, fraud_rows_, metric, 0.75);
  ExpectPartition(clusters, fraud_rows_);
  // The online-store frauds (0,1,3) and gas-station frauds (5,6,7) must not
  // be mixed.
  for (const auto& c : clusters) {
    bool has_online = false;
    bool has_gas = false;
    for (size_t r : c) {
      if (r <= 3) has_online = true;
      if (r >= 5) has_gas = true;
    }
    EXPECT_FALSE(has_online && has_gas);
  }
}

TEST_F(ClusterTest, LeaderThresholdExtremes) {
  TupleDistance metric(ex_.schema,
                       ScaledDistanceOptions(*ex_.relation, fraud_rows_));
  // Huge threshold: a single cluster.
  auto one = LeaderCluster(*ex_.relation, fraud_rows_, metric, 1e9);
  EXPECT_EQ(one.size(), 1u);
  // Negative threshold: every row its own cluster.
  auto all = LeaderCluster(*ex_.relation, fraud_rows_, metric, -1.0);
  EXPECT_EQ(all.size(), fraud_rows_.size());
}

TEST_F(ClusterTest, LeaderEmptyInput) {
  TupleDistance metric(ex_.schema);
  EXPECT_TRUE(LeaderCluster(*ex_.relation, {}, metric, 1.0).empty());
}

TEST_F(ClusterTest, KMedoidsProducesKClusters) {
  TupleDistance metric(ex_.schema,
                       ScaledDistanceOptions(*ex_.relation, fraud_rows_));
  KMedoidsOptions opt;
  opt.k = 2;
  auto clusters = KMedoidsCluster(*ex_.relation, fraud_rows_, metric, opt);
  ExpectPartition(clusters, fraud_rows_);
  EXPECT_LE(clusters.size(), 2u);
  EXPECT_GE(clusters.size(), 1u);
}

TEST_F(ClusterTest, KMedoidsKLargerThanInput) {
  TupleDistance metric(ex_.schema);
  KMedoidsOptions opt;
  opt.k = 50;
  auto clusters = KMedoidsCluster(*ex_.relation, fraud_rows_, metric, opt);
  ExpectPartition(clusters, fraud_rows_);
}

TEST_F(ClusterTest, KMedoidsDeterministicForSeed) {
  TupleDistance metric(ex_.schema,
                       ScaledDistanceOptions(*ex_.relation, fraud_rows_));
  KMedoidsOptions opt;
  opt.k = 2;
  opt.seed = 99;
  auto a = KMedoidsCluster(*ex_.relation, fraud_rows_, metric, opt);
  auto b = KMedoidsCluster(*ex_.relation, fraud_rows_, metric, opt);
  EXPECT_EQ(a, b);
}

TEST_F(ClusterTest, StreamingKMeansPartitions) {
  TupleDistance metric(ex_.schema,
                       ScaledDistanceOptions(*ex_.relation, fraud_rows_));
  StreamingKMeansOptions opt;
  opt.target_k = 2;
  auto clusters =
      StreamingKMeansCluster(*ex_.relation, fraud_rows_, metric, opt);
  ExpectPartition(clusters, fraud_rows_);
}

TEST_F(ClusterTest, StreamingKMeansEmptyInput) {
  TupleDistance metric(ex_.schema);
  StreamingKMeansOptions opt;
  EXPECT_TRUE(StreamingKMeansCluster(*ex_.relation, {}, metric, opt).empty());
}

TEST_F(ClusterTest, StrategyDispatchesAllVariants) {
  for (ClusteringStrategy strategy :
       {ClusteringStrategy::kLeader, ClusteringStrategy::kKMedoids,
        ClusteringStrategy::kStreamingKMeans}) {
    ClusteringOptions opt;
    opt.strategy = strategy;
    opt.k = 2;
    auto clusters = ClusterRows(*ex_.relation, fraud_rows_, opt);
    ExpectPartition(clusters, fraud_rows_);
  }
}

TEST_F(ClusterTest, StrategyNames) {
  EXPECT_STREQ(ClusteringStrategyName(ClusteringStrategy::kLeader), "leader");
  EXPECT_STREQ(ClusteringStrategyName(ClusteringStrategy::kKMedoids),
               "kmedoids");
  EXPECT_STREQ(ClusteringStrategyName(ClusteringStrategy::kStreamingKMeans),
               "streaming-kmeans");
}

}  // namespace
}  // namespace rudolf
