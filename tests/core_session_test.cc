// End-to-end tests of the dissimilarity-construction session (paper
// Figs. 11-13): the privacy-preserving pipeline must reproduce centralized
// computation exactly (the paper's "no loss of accuracy" claim), across
// party counts, attribute types, masking modes and tile sizes — and the
// published outcome must follow the Fig. 13 contract.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <tuple>

#include "cluster/quality.h"
#include "core/outcome.h"
#include "core/topics.h"
#include "data/generators.h"
#include "data/partition.h"
#include "session_test_util.h"

namespace ppc {
namespace {

using testutil::CentralizedReference;
using testutil::MakeSession;
using testutil::MatricesOf;
using testutil::SessionFixture;

LabeledDataset MixedDataset(size_t n, uint64_t seed) {
  auto prng = MakePrng(PrngKind::kXoshiro256, seed);
  Generators::MixedOptions options;
  options.num_clusters = 3;
  options.numeric_dims = 2;
  options.center_spacing = 12.0;
  options.cluster_spread = 0.8;
  options.string_length = 10;
  return Generators::MixedClusters(n, options, Alphabet::Dna(), prng.get())
      .TakeValue();
}

// ----------------------------------------------- E6: accuracy, all types --

TEST(SessionTest, MixedSchemaMatricesMatchCentralized) {
  LabeledDataset data = MixedDataset(24, 1);
  auto parts = Partitioner::RoundRobin(data, 3).TakeValue();
  ProtocolConfig config;

  auto fixture =
      MakeSession(data.data.schema(), MatricesOf(parts), config).TakeValue();
  ASSERT_TRUE(fixture.session->Run().ok());

  auto reference = CentralizedReference(parts, config);
  for (size_t c = 0; c < data.data.schema().size(); ++c) {
    const DissimilarityMatrix* secure =
        fixture.third_party->AttributeMatrixForTesting(c).TakeValue();
    double diff = secure->MaxAbsDifference(reference[c]).TakeValue();
    EXPECT_LT(diff, 1e-12) << "attribute " << c << " ("
                           << data.data.schema().attribute(c).name << ")";
  }
}

class PartyCountTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PartyCountTest, IntegerMatricesExactForKParties) {
  const size_t k = GetParam();
  Schema schema =
      Schema::Create({{"age", AttributeType::kInteger}}).TakeValue();
  LabeledDataset data{DataMatrix(schema), {}};
  auto prng = MakePrng(PrngKind::kXoshiro256, 2);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        data.data
            .AppendRow({Value::Integer(
                static_cast<int64_t>(prng->NextBounded(2000)) - 1000)})
            .ok());
    data.labels.push_back(0);
  }
  auto parts = Partitioner::RoundRobin(data, k).TakeValue();
  ProtocolConfig config;
  auto fixture = MakeSession(schema, MatricesOf(parts), config).TakeValue();
  ASSERT_TRUE(fixture.session->Run().ok());

  auto reference = CentralizedReference(parts, config);
  const DissimilarityMatrix* secure =
      fixture.third_party->AttributeMatrixForTesting(0).TakeValue();
  EXPECT_EQ(secure->MaxAbsDifference(reference[0]).TakeValue(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(TwoToFive, PartyCountTest,
                         ::testing::Values(2, 3, 4, 5));

TEST(SessionTest, PerPairModeMatchesBatchMode) {
  LabeledDataset data = MixedDataset(18, 4);
  auto parts = Partitioner::RoundRobin(data, 2).TakeValue();

  ProtocolConfig batch;
  batch.masking_mode = MaskingMode::kBatch;
  ProtocolConfig per_pair;
  per_pair.masking_mode = MaskingMode::kPerPair;

  auto fixture_batch =
      MakeSession(data.data.schema(), MatricesOf(parts), batch).TakeValue();
  auto fixture_pp =
      MakeSession(data.data.schema(), MatricesOf(parts), per_pair).TakeValue();
  ASSERT_TRUE(fixture_batch.session->Run().ok());
  ASSERT_TRUE(fixture_pp.session->Run().ok());

  for (size_t c = 0; c < data.data.schema().size(); ++c) {
    const DissimilarityMatrix* a =
        fixture_batch.third_party->AttributeMatrixForTesting(c).TakeValue();
    const DissimilarityMatrix* b =
        fixture_pp.third_party->AttributeMatrixForTesting(c).TakeValue();
    EXPECT_LT(a->MaxAbsDifference(*b).TakeValue(), 1e-12);
  }
}

TEST(SessionTest, UnevenPartitionSizes) {
  LabeledDataset data = MixedDataset(21, 5);
  auto parts = Partitioner::ByFractions(data, {0.6, 0.3, 0.1}).TakeValue();
  ProtocolConfig config;
  auto fixture =
      MakeSession(data.data.schema(), MatricesOf(parts), config).TakeValue();
  ASSERT_TRUE(fixture.session->Run().ok());
  auto reference = CentralizedReference(parts, config);
  for (size_t c = 0; c < data.data.schema().size(); ++c) {
    const DissimilarityMatrix* secure =
        fixture.third_party->AttributeMatrixForTesting(c).TakeValue();
    EXPECT_LT(secure->MaxAbsDifference(reference[c]).TakeValue(), 1e-12);
  }
}

// --------------------------------------------- E7: published results ------

TEST(SessionTest, HierarchicalClusteringRecoversPlantedClusters) {
  LabeledDataset data = MixedDataset(24, 6);
  auto parts = Partitioner::RoundRobin(data, 3).TakeValue();
  ProtocolConfig config;
  auto fixture =
      MakeSession(data.data.schema(), MatricesOf(parts), config).TakeValue();
  ASSERT_TRUE(fixture.session->Run().ok());

  ClusterRequest request;
  request.algorithm = ClusterAlgorithm::kHierarchical;
  request.linkage = Linkage::kAverage;
  request.num_clusters = 3;
  auto outcome = fixture.session->RequestClustering("A", request).TakeValue();

  ASSERT_EQ(outcome.clusters.size(), 3u);
  std::vector<int> predicted = outcome.FlatLabels(24);
  // Ground truth in global (concatenated-partition) order.
  LabeledDataset merged = Partitioner::Concatenate(parts).TakeValue();
  double ari =
      Quality::AdjustedRandIndex(predicted, merged.labels).TakeValue();
  EXPECT_GT(ari, 0.95) << "well-separated clusters must be recovered";
}

TEST(SessionTest, OutcomeFollowsFigure13Contract) {
  LabeledDataset data = MixedDataset(12, 7);
  auto parts = Partitioner::RoundRobin(data, 2).TakeValue();
  ProtocolConfig config;
  auto fixture =
      MakeSession(data.data.schema(), MatricesOf(parts), config).TakeValue();
  ASSERT_TRUE(fixture.session->Run().ok());

  ClusterRequest request;
  request.num_clusters = 3;
  auto outcome = fixture.session->RequestClustering("B", request).TakeValue();

  // Membership lists per cluster, every object exactly once, party-local
  // ids like the paper's "A1, A3, B4".
  size_t total = 0;
  std::set<std::pair<std::string, uint64_t>> seen;
  for (const auto& cluster : outcome.clusters) {
    total += cluster.size();
    for (const ObjectRef& ref : cluster) {
      EXPECT_TRUE(ref.party == "A" || ref.party == "B");
      EXPECT_TRUE(seen.insert({ref.party, ref.local_index}).second);
    }
  }
  EXPECT_EQ(total, 12u);
  EXPECT_EQ(outcome.within_cluster_mean_squared.size(),
            outcome.clusters.size());
  for (double q : outcome.within_cluster_mean_squared) {
    EXPECT_GE(q, 0.0);
    EXPECT_LE(q, 1.0);  // Distances normalized to [0,1].
  }

  std::string rendered = outcome.ToString();
  EXPECT_NE(rendered.find("Cluster1"), std::string::npos);
  EXPECT_NE(rendered.find("A"), std::string::npos);
  EXPECT_NE(rendered.find("avg sq dist"), std::string::npos);
}

TEST(SessionTest, EachHolderCanImposeItsOwnRequest) {
  // Paper Sec. 3: "Every data holder can impose a different weight vector
  // and clustering algorithm of his own choice."
  LabeledDataset data = MixedDataset(18, 8);
  auto parts = Partitioner::RoundRobin(data, 2).TakeValue();
  ProtocolConfig config;
  auto fixture =
      MakeSession(data.data.schema(), MatricesOf(parts), config).TakeValue();
  ASSERT_TRUE(fixture.session->Run().ok());

  ClusterRequest hierarchical;
  hierarchical.algorithm = ClusterAlgorithm::kHierarchical;
  hierarchical.linkage = Linkage::kComplete;
  hierarchical.num_clusters = 2;
  auto outcome_a =
      fixture.session->RequestClustering("A", hierarchical).TakeValue();
  EXPECT_EQ(outcome_a.clusters.size(), 2u);

  ClusterRequest medoids;
  medoids.algorithm = ClusterAlgorithm::kKMedoids;
  medoids.num_clusters = 3;
  auto outcome_b =
      fixture.session->RequestClustering("B", medoids).TakeValue();
  EXPECT_EQ(outcome_b.clusters.size(), 3u);
}

TEST(SessionTest, DbscanRequestLabelsNoise) {
  // Numeric-only data with one extreme outlier.
  Schema schema = Schema::Create({{"v", AttributeType::kReal}}).TakeValue();
  LabeledDataset data{DataMatrix(schema), {}};
  auto add = [&](double v) {
    ASSERT_TRUE(data.data.AppendRow({Value::Real(v)}).ok());
    data.labels.push_back(0);
  };
  for (double v : {0.0, 0.1, 0.2, 0.3, 5.0, 5.1, 5.2, 5.3}) add(v);
  add(100.0);  // Outlier.
  auto parts = Partitioner::RoundRobin(data, 2).TakeValue();
  ProtocolConfig config;
  auto fixture = MakeSession(schema, MatricesOf(parts), config).TakeValue();
  ASSERT_TRUE(fixture.session->Run().ok());

  ClusterRequest request;
  request.algorithm = ClusterAlgorithm::kDbscan;
  request.dbscan_eps = 0.02;  // Distances normalized by max (=100).
  request.dbscan_min_points = 3;
  auto outcome = fixture.session->RequestClustering("A", request).TakeValue();
  EXPECT_EQ(outcome.clusters.size(), 2u);
  ASSERT_EQ(outcome.noise.size(), 1u);
  // The outlier 100.0 went to party A (global index 8 is row 4 of A).
  EXPECT_EQ(outcome.noise[0].party, "A");
  // Noise makes the silhouette undefined — it must be absent, not 0.0.
  EXPECT_FALSE(outcome.silhouette.has_value());
  // The published quality vector covers the real clusters only (the noise
  // pseudo-cluster is dropped).
  EXPECT_EQ(outcome.within_cluster_mean_squared.size(),
            outcome.clusters.size());
}

TEST(SessionTest, WeightVectorSelectsAttributes) {
  // Two integer attributes with contradictory groupings; weighting one to
  // zero must flip the clustering.
  Schema schema = Schema::Create({{"p", AttributeType::kInteger},
                                  {"q", AttributeType::kInteger}})
                      .TakeValue();
  LabeledDataset data{DataMatrix(schema), {}};
  // p groups {0,1} vs {2,3}; q groups {0,2} vs {1,3}.
  ASSERT_TRUE(data.data.AppendRow({Value::Integer(0), Value::Integer(0)}).ok());
  ASSERT_TRUE(
      data.data.AppendRow({Value::Integer(1), Value::Integer(100)}).ok());
  ASSERT_TRUE(
      data.data.AppendRow({Value::Integer(100), Value::Integer(1)}).ok());
  ASSERT_TRUE(
      data.data.AppendRow({Value::Integer(101), Value::Integer(101)}).ok());
  data.labels = {0, 0, 1, 1};
  auto parts = Partitioner::RoundRobin(data, 2).TakeValue();
  ProtocolConfig config;
  auto fixture = MakeSession(schema, MatricesOf(parts), config).TakeValue();
  ASSERT_TRUE(fixture.session->Run().ok());

  ClusterRequest by_p;
  by_p.weights = {1.0, 0.0};
  by_p.num_clusters = 2;
  auto outcome_p = fixture.session->RequestClustering("A", by_p).TakeValue();
  std::vector<int> labels_p = outcome_p.FlatLabels(4);
  // Global order (round-robin, A={0,2}, B={1,3}): objects 0,1 are original
  // rows 0,2. p-grouping: original {0,1} together -> global {0,2} together.
  EXPECT_EQ(labels_p[0], labels_p[2]);
  EXPECT_NE(labels_p[0], labels_p[1]);

  ClusterRequest by_q;
  by_q.weights = {0.0, 1.0};
  by_q.num_clusters = 2;
  auto outcome_q = fixture.session->RequestClustering("A", by_q).TakeValue();
  std::vector<int> labels_q = outcome_q.FlatLabels(4);
  // q-grouping: original {0,2} together -> global {0,1} together.
  EXPECT_EQ(labels_q[0], labels_q[1]);
  EXPECT_NE(labels_q[0], labels_q[2]);
}

TEST(SessionTest, BadWeightVectorRejected) {
  LabeledDataset data = MixedDataset(8, 9);
  auto parts = Partitioner::RoundRobin(data, 2).TakeValue();
  ProtocolConfig config;
  auto fixture =
      MakeSession(data.data.schema(), MatricesOf(parts), config).TakeValue();
  ASSERT_TRUE(fixture.session->Run().ok());
  ClusterRequest request;
  request.weights = {1.0};  // Schema has 4 attributes.
  EXPECT_FALSE(fixture.session->RequestClustering("A", request).ok());
}

// ------------------------------------------------------- serialization ----

TEST(OutcomeTest, SerializationRoundTrip) {
  ClusteringOutcome outcome;
  outcome.clusters = {{{"A", 1, 0}, {"B", 4, 7}}, {{"C", 0, 3}}};
  outcome.within_cluster_mean_squared = {0.25, 0.0};
  outcome.silhouette = 0.75;
  outcome.noise = {{"B", 2, 5}};

  ByteWriter writer;
  outcome.Serialize(&writer);
  std::string bytes = writer.TakeBytes();
  ByteReader reader(bytes);
  ClusteringOutcome back = ClusteringOutcome::Deserialize(&reader).TakeValue();

  ASSERT_EQ(back.clusters.size(), 2u);
  EXPECT_EQ(back.clusters[0][1].party, "B");
  EXPECT_EQ(back.clusters[0][1].global_index, 7u);
  EXPECT_EQ(back.within_cluster_mean_squared, outcome.within_cluster_mean_squared);
  EXPECT_EQ(back.silhouette, 0.75);
  ASSERT_EQ(back.noise.size(), 1u);
  EXPECT_EQ(back.noise[0].Display(), "B2");
}

TEST(OutcomeTest, SerializationPreservesAbsentSilhouette) {
  // An unset silhouette (undefined score) must round-trip as unset — it is
  // not the same published result as a genuine 0.0.
  ClusteringOutcome outcome;
  outcome.clusters = {{{"A", 0, 0}}};
  outcome.within_cluster_mean_squared = {0.0};

  ByteWriter writer;
  outcome.Serialize(&writer);
  std::string bytes = writer.TakeBytes();
  ByteReader reader(bytes);
  ClusteringOutcome back = ClusteringOutcome::Deserialize(&reader).TakeValue();
  EXPECT_FALSE(back.silhouette.has_value());

  outcome.silhouette = 0.0;
  ByteWriter writer_zero;
  outcome.Serialize(&writer_zero);
  std::string zero_bytes = writer_zero.TakeBytes();
  ByteReader zero_reader(zero_bytes);
  ClusteringOutcome back_zero =
      ClusteringOutcome::Deserialize(&zero_reader).TakeValue();
  ASSERT_TRUE(back_zero.silhouette.has_value());
  EXPECT_EQ(*back_zero.silhouette, 0.0);
}

TEST(OutcomeTest, RequestSerializationRoundTrip) {
  ClusterRequest request;
  request.weights = {0.5, 0.25, 0.25};
  request.algorithm = ClusterAlgorithm::kDbscan;
  request.linkage = Linkage::kWard;
  request.num_clusters = 7;
  request.dbscan_eps = 0.125;
  request.dbscan_min_points = 9;

  ByteWriter writer;
  request.Serialize(&writer);
  std::string bytes = writer.TakeBytes();
  ByteReader reader(bytes);
  ClusterRequest back = ClusterRequest::Deserialize(&reader).TakeValue();
  EXPECT_EQ(back.weights, request.weights);
  EXPECT_EQ(back.algorithm, ClusterAlgorithm::kDbscan);
  EXPECT_EQ(back.linkage, Linkage::kWard);
  EXPECT_EQ(back.num_clusters, 7u);
  EXPECT_EQ(back.dbscan_eps, 0.125);
  EXPECT_EQ(back.dbscan_min_points, 9u);
}

TEST(OutcomeTest, FlatLabelsMarksNoiseMinusOne) {
  ClusteringOutcome outcome;
  outcome.clusters = {{{"A", 0, 0}}, {{"A", 1, 1}}};
  outcome.noise = {{"B", 0, 2}};
  auto labels = outcome.FlatLabels(3);
  EXPECT_EQ(labels, (std::vector<int>{0, 1, -1}));
}

// ----------------------------------------------------------- validation ---

TEST(SessionTest, RequiresTwoHolders) {
  LabeledDataset data = MixedDataset(6, 10);
  ProtocolConfig config;
  auto fixture =
      MakeSession(data.data.schema(), {data.data}, config).TakeValue();
  EXPECT_EQ(fixture.session->Run().code(), StatusCode::kFailedPrecondition);
}

TEST(SessionTest, RejectsSchemaMismatch) {
  LabeledDataset data = MixedDataset(6, 11);
  Schema other = Schema::Create({{"x", AttributeType::kInteger}}).TakeValue();
  InMemoryNetwork network;
  ProtocolConfig config;
  ThirdParty tp("TP", &network, config, other, 1);
  ClusteringSession session(&network, config, other);
  ASSERT_TRUE(session.SetThirdParty(&tp).ok());
  DataHolder a("A", &network, config, 2);
  ASSERT_TRUE(a.SetData(data.data).ok());  // Mixed schema != other.
  DataHolder b("B", &network, config, 3);
  ASSERT_TRUE(b.SetData(data.data).ok());
  ASSERT_TRUE(session.AddDataHolder(&a).ok());
  ASSERT_TRUE(session.AddDataHolder(&b).ok());
  EXPECT_EQ(session.Run().code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, CannotRunTwiceOrRequestBeforeRun) {
  LabeledDataset data = MixedDataset(8, 12);
  auto parts = Partitioner::RoundRobin(data, 2).TakeValue();
  ProtocolConfig config;
  auto fixture =
      MakeSession(data.data.schema(), MatricesOf(parts), config).TakeValue();
  ClusterRequest request;
  EXPECT_EQ(fixture.session->RequestClustering("A", request).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(fixture.session->Run().ok());
  EXPECT_EQ(fixture.session->Run().code(), StatusCode::kFailedPrecondition);
}

TEST(SessionTest, DuplicateHolderNameRejected) {
  InMemoryNetwork network;
  ProtocolConfig config;
  Schema schema = Schema::Create({{"v", AttributeType::kInteger}}).TakeValue();
  ClusteringSession session(&network, config, schema);
  DataHolder a1("A", &network, config, 1);
  DataHolder a2("A", &network, config, 2);
  ASSERT_TRUE(session.AddDataHolder(&a1).ok());
  EXPECT_FALSE(session.AddDataHolder(&a2).ok());
}

TEST(SessionTest, UnknownRequesterRejected) {
  LabeledDataset data = MixedDataset(8, 13);
  auto parts = Partitioner::RoundRobin(data, 2).TakeValue();
  ProtocolConfig config;
  auto fixture =
      MakeSession(data.data.schema(), MatricesOf(parts), config).TakeValue();
  ASSERT_TRUE(fixture.session->Run().ok());
  ClusterRequest request;
  EXPECT_EQ(fixture.session->RequestClustering("Z", request).status().code(),
            StatusCode::kNotFound);
}


// ------------------------------------------------ integer attribute range --

/// One integer attribute, two holders: A holds {a0, a1}, B holds {b0, b1}.
std::vector<LabeledDataset> IntegerParts(int64_t a0, int64_t a1, int64_t b0,
                                         int64_t b1) {
  Schema schema =
      Schema::Create({{"count", AttributeType::kInteger}}).TakeValue();
  std::vector<LabeledDataset> parts;
  for (auto [first, second] : {std::pair{a0, a1}, std::pair{b0, b1}}) {
    LabeledDataset part{DataMatrix(schema), {0, 0}};
    EXPECT_TRUE(part.data.AppendRow({Value::Integer(first)}).ok());
    EXPECT_TRUE(part.data.AppendRow({Value::Integer(second)}).ok());
    parts.push_back(std::move(part));
  }
  return parts;
}

class IntegerRangeTest
    : public ::testing::TestWithParam<std::tuple<MaskingMode, size_t>> {
 protected:
  ProtocolConfig Config() const {
    ProtocolConfig config;
    config.masking_mode = std::get<0>(GetParam());
    config.tile_size = std::get<1>(GetParam());
    return config;
  }
};

TEST_P(IntegerRangeTest, ValuesBeyondTheBoundAreOutOfRange) {
  constexpr int64_t kBound = int64_t{1} << 52;
  // The first case spans holders with |A0 - B0| = 1.38e19 >= 2^63, which
  // the comparison ring's signed read would wrap to 4.6e18.
  const std::vector<std::vector<int64_t>> cases = {
      {6900000000000000000, 0, -6900000000000000000, 1},
      {kBound + 1, 0, 0, 1},
      {-kBound - 1, 0, 0, 1},
      {std::numeric_limits<int64_t>::min(), 0, 0, 1},
      {std::numeric_limits<int64_t>::max(), 0, 0, 1}};
  for (const std::vector<int64_t>& values : cases) {
    auto parts = IntegerParts(values[0], values[1], values[2], values[3]);
    auto fixture = MakeSession(parts[0].data.schema(), MatricesOf(parts),
                               Config());
    EXPECT_EQ(fixture.status().code(), StatusCode::kOutOfRange) << values[0];
  }
}

TEST_P(IntegerRangeTest, BoundaryValuesMatchCentralizedExactly) {
  constexpr int64_t kBound = int64_t{1} << 52;
  auto parts = IntegerParts(kBound, 0, -kBound, 1);
  auto fixture = MakeSession(parts[0].data.schema(), MatricesOf(parts),
                             Config());
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  Status run = fixture->session->Run();
  ASSERT_TRUE(run.ok()) << run.ToString();
  auto reference = CentralizedReference(parts, Config());
  const DissimilarityMatrix* secure =
      fixture->third_party->AttributeMatrixForTesting(0).TakeValue();
  EXPECT_EQ(secure->MaxAbsDifference(reference[0]).TakeValue(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    MaskingByTile, IntegerRangeTest,
    ::testing::Combine(::testing::Values(MaskingMode::kBatch,
                                         MaskingMode::kPerPair),
                       ::testing::Values(size_t{0}, size_t{2})),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == MaskingMode::kBatch
                             ? "Batch"
                             : "PerPair") +
             "Tile" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------- randomized property sweep --

struct SweepCase {
  uint64_t seed;
  size_t parties;
  MaskingMode mode;
};

class SessionSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(SessionSweepTest, RandomConfigurationsMatchCentralized) {
  const SweepCase& config_case = GetParam();
  auto prng = MakePrng(PrngKind::kXoshiro256, config_case.seed);

  // Random mixed dataset: dimensions and sizes drawn per case.
  Generators::MixedOptions options;
  options.num_clusters = 2 + prng->NextBounded(3);
  options.numeric_dims = 1 + prng->NextBounded(3);
  options.string_length = 4 + prng->NextBounded(8);
  size_t objects = config_case.parties * (2 + prng->NextBounded(6));
  LabeledDataset data =
      Generators::MixedClusters(objects, options, Alphabet::Dna(), prng.get())
          .TakeValue();
  auto parts =
      Partitioner::Random(data, config_case.parties, prng.get()).TakeValue();

  ProtocolConfig config;
  config.masking_mode = config_case.mode;
  auto fixture =
      MakeSession(data.data.schema(), MatricesOf(parts), config,
                  TransportSecurity::kAuthenticatedEncryption,
                  9000 + config_case.seed)
          .TakeValue();
  ASSERT_TRUE(fixture.session->Run().ok());

  auto reference = CentralizedReference(parts, config);
  for (size_t c = 0; c < data.data.schema().size(); ++c) {
    const DissimilarityMatrix* secure =
        fixture.third_party->AttributeMatrixForTesting(c).TakeValue();
    EXPECT_LT(secure->MaxAbsDifference(reference[c]).TakeValue(), 1e-12)
        << "seed=" << config_case.seed << " attribute " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedSweep, SessionSweepTest,
    ::testing::Values(
        SweepCase{1, 2, MaskingMode::kBatch},
        SweepCase{2, 3, MaskingMode::kPerPair},
        SweepCase{3, 4, MaskingMode::kBatch},
        SweepCase{4, 2, MaskingMode::kPerPair},
        SweepCase{5, 5, MaskingMode::kBatch},
        SweepCase{6, 3, MaskingMode::kBatch},
        SweepCase{7, 2, MaskingMode::kPerPair},
        SweepCase{8, 4, MaskingMode::kPerPair}),
    [](const auto& info) {
      return "Seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace ppc
