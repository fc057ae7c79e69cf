// Golden outcomes: the published clustering outcome bytes and the third
// party's per-attribute matrices of fixed sessions are pinned as SHA-256
// digests. The protocol's wire framing may change (row-range headers, mask
// stream labels), but what it computes may not: any change to these
// digests is a change to results. Every executor, tile size and transport
// override the suite runs under must reproduce them exactly.

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "common/serde.h"
#include "crypto/sha256.h"
#include "data/generators.h"
#include "data/partition.h"
#include "session_test_util.h"

namespace ppc {
namespace {

using testutil::MakeSession;
using testutil::MatricesOf;

struct GoldenCase {
  const char* name;
  MaskingMode masking;
  bool mixed;      // Mixed schema (real, categorical, DNA) vs. all-numeric.
  size_t holders;  // k.
};

void PrintTo(const GoldenCase& gc, std::ostream* os) { *os << gc.name; }

struct Golden {
  /// SHA-256 of ClusteringOutcome::Serialize.
  const char* outcome;
  /// SHA-256 of each normalized attribute matrix's packed cells
  /// (ByteWriter::WriteF64Vector), in schema order.
  std::vector<const char*> matrices;
};

/// Digests captured from the whole-matrix implementation (before every
/// round became a row-range round). Masking modes agree by construction,
/// so the digests depend only on the data and its partitioning.
const Golden& Expected(bool mixed, size_t holders) {
  static const Golden kNumericK2{
      "7c1f6e260cc5a5288a9d9e2ae3ec232f6f73ea286f23fe9baea78e180f4fd518",
      {"99028ddf16787b5b93e8331e6645f003679651d5001fb74b1b8f54d530f77256",
       "3502e93a9e5e0a3072f3345770739ee54c60588d2cac959626f5b05f8636e846"}};
  static const Golden kNumericK3{
      "550b04d2640feea25dd0d2dae6f03c660912a42d8c2734ede2d1b9a65028eb5e",
      {"c63165f6da29fdece67512a3a102d609b3639e0e2229304d49c9132e35402970",
       "223e774ebe66c8bf75361d10e1f72652985bac04e046f4fdfc27257c39861a46"}};
  static const Golden kMixedK2{
      "f83eed78d01c5be27368a064506a4e182a29c89624be466393a28f521c3fe9df",
      {"2facc4b40167add344a48c391f0b1eae3e0e727c9e5837c69faaeb2297221dbd",
       "ed5f5ef9a218a274086ba2122ba6a02ad400bbc29264f191848fa07450a63a9b",
       "fa7db4bdd70ca733590785df0529e4d027a9cfc96348519fea50aecf58f67809",
       "5bccbd05e0711abebdbfce5f2c747384c6a651b8936368422afcf92b9ff9113c"}};
  static const Golden kMixedK3{
      "eeeccf568d18785fd35e8cc6cd27c96d5df997311bbd1ac9f159e89b77086a5d",
      {"2631c438ac03e788eafdc89ad81f2dffd72f3806dd0b31755b655566401a86bc",
       "149773b5bc7d1bc709cd8457d88eece1bd7f1fb14300c619b0298f6a118bfa44",
       "f2b03789d8d0c22b2518bad2971ef785ba5b16ce2518c58a25e2d066c8ed0a73",
       "f8e4ac1f01e125da724a7c783c432f4fa62853b6eafa1f34360282c5de2217ad"}};
  if (mixed) return holders == 2 ? kMixedK2 : kMixedK3;
  return holders == 2 ? kNumericK2 : kNumericK3;
}

LabeledDataset GoldenData(bool mixed) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 2006);
  if (mixed) {
    Generators::MixedOptions options;
    options.string_length = 7;
    return Generators::MixedClusters(23, options, Alphabet::Dna(), prng.get())
        .TakeValue();
  }
  return Generators::GaussianMixture(23,
                                     {{{0.0, 0.0}, 1.0, 1.0},
                                      {{6.0, 1.0}, 1.5, 1.0},
                                      {{2.0, 7.0}, 0.5, 1.0}},
                                     prng.get())
      .TakeValue();
}

std::string DigestOf(const std::vector<double>& cells) {
  ByteWriter writer;
  writer.WriteF64Vector(cells);
  return Sha256::HexDigest(writer.TakeBytes());
}

class OutcomeGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(OutcomeGoldenTest, OutcomeBytesAndMatricesMatchPinnedDigests) {
  const GoldenCase& gc = GetParam();
  LabeledDataset data = GoldenData(gc.mixed);
  auto parts = Partitioner::RoundRobin(data, gc.holders).TakeValue();

  ProtocolConfig config;
  config.masking_mode = gc.masking;
  auto fixture =
      MakeSession(data.data.schema(), MatricesOf(parts), config).TakeValue();
  Status run = fixture.session->Run();
  ASSERT_TRUE(run.ok()) << run.ToString();

  ClusterRequest request;
  request.num_clusters = 3;
  auto outcome = fixture.session->RequestClustering("A", request);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const Golden& expected = Expected(gc.mixed, gc.holders);
  ByteWriter writer;
  outcome->Serialize(&writer);
  EXPECT_EQ(Sha256::HexDigest(writer.TakeBytes()), expected.outcome)
      << gc.name << ": outcome bytes";

  const Schema& schema = data.data.schema();
  ASSERT_EQ(expected.matrices.size(), schema.size()) << gc.name;
  for (size_t c = 0; c < schema.size(); ++c) {
    const DissimilarityMatrix* matrix =
        fixture.third_party->AttributeMatrixForTesting(c).TakeValue();
    EXPECT_EQ(DigestOf(matrix->packed_cells()), expected.matrices[c])
        << gc.name << ": attribute " << c << " ("
        << schema.attribute(c).name << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    MaskingsSchemasAndHolderCounts, OutcomeGoldenTest,
    ::testing::Values(
        GoldenCase{"BatchNumericK2", MaskingMode::kBatch, false, 2},
        GoldenCase{"BatchNumericK3", MaskingMode::kBatch, false, 3},
        GoldenCase{"BatchMixedK2", MaskingMode::kBatch, true, 2},
        GoldenCase{"BatchMixedK3", MaskingMode::kBatch, true, 3},
        GoldenCase{"PerPairNumericK2", MaskingMode::kPerPair, false, 2},
        GoldenCase{"PerPairNumericK3", MaskingMode::kPerPair, false, 3},
        GoldenCase{"PerPairMixedK2", MaskingMode::kPerPair, true, 2},
        GoldenCase{"PerPairMixedK3", MaskingMode::kPerPair, true, 3}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace ppc
