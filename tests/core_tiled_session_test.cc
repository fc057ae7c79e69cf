// Row-range tiling of the quadratic phases (ProtocolConfig::tile_size) must
// be invisible in the results. At every tile size — 0 (one range over
// each holder's rows), tile boundaries that do not divide the partition
// sizes, single-row tiles, tiles larger than any partition, and empty
// partitions — the third party's per-attribute matrices match the
// centralized pooled-data reference, and a tiled run's matrices and
// published clustering outcome are bit-identical to the tile_size 0
// (whole-matrix) run, across schema types, both masking modes, all three
// executors and both transports. Only the wire framing (per-tile headers,
// fresh per-tile mask streams in per-pair mode) may differ.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/party_runner.h"
#include "data/generators.h"
#include "data/partition.h"
#include "net/tcp_network.h"
#include "session_test_util.h"

namespace ppc {
namespace {

using testutil::CentralizedReference;
using testutil::MakeSession;
using testutil::MatricesOf;
using testutil::SessionFixture;

constexpr uint64_t kEntropyBase = 9000;  // Matches MakeSession's default.
constexpr std::chrono::milliseconds kNetTimeout{20000};

LabeledDataset MixedDataset(size_t n, uint64_t seed) {
  auto prng = MakePrng(PrngKind::kXoshiro256, seed);
  Generators::MixedOptions options;
  options.num_clusters = 3;
  options.numeric_dims = 2;
  options.string_length = 8;
  return Generators::MixedClusters(n, options, Alphabet::Dna(), prng.get())
      .TakeValue();
}

ClusterRequest HierRequest() {
  ClusterRequest request;
  request.num_clusters = 3;
  return request;
}

/// Runs the full session over `parts` with `config` and returns the
/// fixture (third party holds the finished matrices).
SessionFixture RunSession(const LabeledDataset& data,
                          const std::vector<LabeledDataset>& parts,
                          const ProtocolConfig& config) {
  SessionFixture fixture =
      MakeSession(data.data.schema(), MatricesOf(parts), config).TakeValue();
  Status status = fixture.session->Run();
  EXPECT_TRUE(status.ok()) << status.ToString();
  return fixture;
}

/// The third party's matrices against the pooled-data reference.
void ExpectMatchesCentralized(const ThirdParty& tp,
                              const std::vector<LabeledDataset>& parts,
                              const Schema& schema, const std::string& what) {
  auto reference = CentralizedReference(parts, tp.config());
  for (size_t c = 0; c < schema.size(); ++c) {
    const DissimilarityMatrix* got =
        tp.AttributeMatrixForTesting(c).TakeValue();
    EXPECT_LT(got->MaxAbsDifference(reference[c]).TakeValue(), 1e-12)
        << what << ": attribute " << c << " (" << schema.attribute(c).name
        << ")";
  }
}

/// Bit-identical per-attribute matrices — the tiling acceptance bar.
void ExpectBitIdentical(const ThirdParty& tiled, const ThirdParty& whole,
                        const Schema& schema, const std::string& what) {
  for (size_t c = 0; c < schema.size(); ++c) {
    const DissimilarityMatrix* got =
        tiled.AttributeMatrixForTesting(c).TakeValue();
    const DissimilarityMatrix* want =
        whole.AttributeMatrixForTesting(c).TakeValue();
    EXPECT_EQ(got->packed_cells(), want->packed_cells())
        << what << ": attribute " << c << " ("
        << schema.attribute(c).name << ")";
  }
}

// ------------------------------------------ tile sizes x masking modes --

struct TiledCase {
  size_t tile_size;
  MaskingMode masking;
  /// Insert an empty second partition: holder B holds 0 objects, so it is
  /// a 0-row responder (A -> B) and a 0-column initiator (B -> C).
  bool empty_responder = false;
};

class TiledEqualityTest : public ::testing::TestWithParam<TiledCase> {};

// n = 19 over 3 holders -> partitions of 7/6/6 rows: tile sizes 1, 4, 7
// exercise n % T != 0 and T == max partition; 64 exceeds every partition
// (one tile per round, like tile size 0). The empty-responder cases split
// n over A and C only.
TEST_P(TiledEqualityTest, MatricesAndOutcomeMatchWholeMatrixRun) {
  const TiledCase& tc = GetParam();
  LabeledDataset data = MixedDataset(19, 11);
  std::vector<LabeledDataset> parts;
  if (tc.empty_responder) {
    parts = Partitioner::RoundRobin(data, 2).TakeValue();
    parts.insert(parts.begin() + 1,
                 LabeledDataset{DataMatrix(data.data.schema()), {}});
  } else {
    parts = Partitioner::RoundRobin(data, 3).TakeValue();
  }
  const std::string what = "tile=" + std::to_string(tc.tile_size);

  ProtocolConfig config;
  config.masking_mode = tc.masking;
  config.tile_size = tc.tile_size;
  SessionFixture tiled = RunSession(data, parts, config);
  ExpectMatchesCentralized(*tiled.third_party, parts, data.data.schema(),
                           what);
  if (tc.tile_size == 0) return;

  config.tile_size = 0;
  SessionFixture whole = RunSession(data, parts, config);
  ExpectBitIdentical(*tiled.third_party, *whole.third_party,
                     data.data.schema(), what);
  auto tiled_outcome =
      tiled.session->RequestClustering("A", HierRequest()).TakeValue();
  auto whole_outcome =
      whole.session->RequestClustering("A", HierRequest()).TakeValue();
  EXPECT_EQ(tiled_outcome.ToString(), whole_outcome.ToString());
}

INSTANTIATE_TEST_SUITE_P(
    TileSizesAndMaskings, TiledEqualityTest,
    ::testing::Values(TiledCase{0, MaskingMode::kBatch},
                      TiledCase{0, MaskingMode::kPerPair},
                      TiledCase{1, MaskingMode::kBatch},
                      TiledCase{1, MaskingMode::kPerPair},
                      TiledCase{4, MaskingMode::kBatch},
                      TiledCase{4, MaskingMode::kPerPair},
                      TiledCase{7, MaskingMode::kBatch},
                      TiledCase{7, MaskingMode::kPerPair},
                      TiledCase{64, MaskingMode::kBatch},
                      TiledCase{64, MaskingMode::kPerPair},
                      TiledCase{0, MaskingMode::kBatch, true},
                      TiledCase{0, MaskingMode::kPerPair, true},
                      TiledCase{2, MaskingMode::kBatch, true},
                      TiledCase{2, MaskingMode::kPerPair, true}),
    [](const ::testing::TestParamInfo<TiledCase>& info) {
      return "Tile" + std::to_string(info.param.tile_size) +
             (info.param.masking == MaskingMode::kPerPair ? "PerPair"
                                                          : "Batch") +
             (info.param.empty_responder ? "EmptyResponder" : "");
    });

// ------------------------------------------------------ edge partitions --

// A single-row holder: its local matrix is empty and every comparison
// round against it has exactly one row (or one column), so tiles degenerate
// to single rows and zero-cell triangle tiles.
TEST(TiledSessionTest, SingleRowHolderAtEveryRole) {
  LabeledDataset data = MixedDataset(13, 12);
  auto split = Partitioner::ByFractions(data, {1.0 / 13, 12.0 / 13})
                   .TakeValue();
  ASSERT_EQ(split[0].data.NumRows(), 1u);

  for (MaskingMode masking : {MaskingMode::kBatch, MaskingMode::kPerPair}) {
    const std::string what = std::string("single-row holder, masking=") +
                             MaskingModeToString(masking);
    ProtocolConfig config;
    config.masking_mode = masking;
    SessionFixture whole = RunSession(data, split, config);
    ExpectMatchesCentralized(*whole.third_party, split, data.data.schema(),
                             what);

    config.tile_size = 3;
    SessionFixture tiled = RunSession(data, split, config);
    ExpectBitIdentical(*tiled.third_party, *whole.third_party,
                       data.data.schema(), what);
  }
}

// ------------------------------------------------------------ executors --

// One tiled graph, three executors: the sequential reference, the
// thread-pool engine, and per-party projections driven as separate threads
// over the in-memory backend. All three must agree bit for bit with the
// tile_size 0 run.
TEST(TiledSessionTest, AllThreeExecutorsAgree) {
  LabeledDataset data = MixedDataset(17, 13);
  auto parts = Partitioner::RoundRobin(data, 2).TakeValue();

  ProtocolConfig config;
  SessionFixture whole = RunSession(data, parts, config);

  config.tile_size = 5;
  config.num_threads = 1;  // Sequential reference.
  SessionFixture sequential = RunSession(data, parts, config);
  ExpectBitIdentical(*sequential.third_party, *whole.third_party,
                     data.data.schema(), "sequential");

  config.num_threads = 4;  // Concurrent engine.
  SessionFixture concurrent = RunSession(data, parts, config);
  ExpectBitIdentical(*concurrent.third_party, *whole.third_party,
                     data.data.schema(), "concurrent");

  // Distributed: every party its own PartyRunner thread. The runner builds
  // the tiled graph itself (two-stage: tile_size 0 setup, then
  // roster-sized tiles), so this also covers the roster-count path.
  config.num_threads = 1;
  InMemoryNetwork net;
  net.set_receive_timeout(kNetTimeout);
  ASSERT_TRUE(net.RegisterParty("TP").ok());
  ASSERT_TRUE(net.RegisterParty("A").ok());
  ASSERT_TRUE(net.RegisterParty("B").ok());

  SessionPlan plan;
  plan.holder_order = {"A", "B"};
  ThirdParty tp("TP", &net, config, data.data.schema(), kEntropyBase);
  DataHolder holder_a("A", &net, config, kEntropyBase + 1);
  DataHolder holder_b("B", &net, config, kEntropyBase + 2);
  ASSERT_TRUE(holder_a.SetData(parts[0].data).ok());
  ASSERT_TRUE(holder_b.SetData(parts[1].data).ok());

  Status tp_status, b_status;
  std::thread tp_thread([&] {
    tp_status = PartyRunner::RunThirdParty(&tp, plan, data.data.schema());
  });
  std::thread b_thread([&] {
    b_status = PartyRunner::RunHolder(&holder_b, plan, data.data.schema());
  });
  Status a_status =
      PartyRunner::RunHolder(&holder_a, plan, data.data.schema());
  tp_thread.join();
  b_thread.join();
  ASSERT_TRUE(a_status.ok()) << a_status.ToString();
  ASSERT_TRUE(b_status.ok()) << b_status.ToString();
  ASSERT_TRUE(tp_status.ok()) << tp_status.ToString();

  ExpectBitIdentical(tp, *whole.third_party, data.data.schema(),
                     "distributed");
}

// ----------------------------------------------------------- transports --

// Tiled frames over real loopback sockets: a multi-endpoint PartyRunner
// run on the TCP backend reproduces the in-memory tile_size 0 matrices
// bit for bit (per-pair masking, so the tile-fresh mask streams cross the
// wire too).
TEST(TiledSessionTest, TcpPartyRunnerMatchesWholeMatrix) {
  LabeledDataset data = MixedDataset(14, 14);
  auto parts = Partitioner::RoundRobin(data, 2).TakeValue();

  ProtocolConfig config;
  config.masking_mode = MaskingMode::kPerPair;
  SessionFixture whole = RunSession(data, parts, config);

  config.tile_size = 4;
  auto net_tp = TcpNetwork::Create({});
  auto net_a = TcpNetwork::Create({});
  auto net_b = TcpNetwork::Create({});
  ASSERT_TRUE(net_tp.ok() && net_a.ok() && net_b.ok());

  struct Site {
    TcpNetwork* net;
    const char* party;
  };
  const std::vector<Site> sites = {{net_tp->get(), "TP"},
                                   {net_a->get(), "A"},
                                   {net_b->get(), "B"}};
  for (const Site& site : sites) {
    site.net->set_receive_timeout(kNetTimeout);
    ASSERT_TRUE(site.net->RegisterParty(site.party).ok());
    for (const Site& peer : sites) {
      if (peer.net == site.net) continue;
      ASSERT_TRUE(site.net
                      ->AddRemoteParty(peer.party, "127.0.0.1",
                                       peer.net->listen_port())
                      .ok());
    }
  }

  SessionPlan plan;
  plan.holder_order = {"A", "B"};
  ThirdParty tp("TP", net_tp->get(), config, data.data.schema(),
                kEntropyBase);
  DataHolder holder_a("A", net_a->get(), config, kEntropyBase + 1);
  DataHolder holder_b("B", net_b->get(), config, kEntropyBase + 2);
  ASSERT_TRUE(holder_a.SetData(parts[0].data).ok());
  ASSERT_TRUE(holder_b.SetData(parts[1].data).ok());

  Status tp_status, b_status;
  std::thread tp_thread([&] {
    tp_status = PartyRunner::RunThirdParty(&tp, plan, data.data.schema());
  });
  std::thread b_thread([&] {
    b_status = PartyRunner::RunHolder(&holder_b, plan, data.data.schema());
  });
  Status a_status =
      PartyRunner::RunHolder(&holder_a, plan, data.data.schema());
  tp_thread.join();
  b_thread.join();
  ASSERT_TRUE(a_status.ok()) << a_status.ToString();
  ASSERT_TRUE(b_status.ok()) << b_status.ToString();
  ASSERT_TRUE(tp_status.ok()) << tp_status.ToString();

  ExpectBitIdentical(tp, *whole.third_party, data.data.schema(),
                     "tiled over TCP");
}

// -------------------------------------------------------- env override --

// PPC_TILE_SIZE mirrors PPC_SCHEDULE / PPC_NUM_THREADS: it applies to
// fixtures that left tile_size at the default, and never overrides a
// test's explicit choice.
TEST(TiledSessionTest, TileSizeEnvOverrideAppliesWhenDefault) {
  LabeledDataset data = MixedDataset(9, 15);
  auto parts = Partitioner::RoundRobin(data, 2).TakeValue();

  ASSERT_EQ(setenv("PPC_TILE_SIZE", "3", 1), 0);
  ProtocolConfig config;
  auto defaulted =
      MakeSession(data.data.schema(), MatricesOf(parts), config).TakeValue();
  EXPECT_EQ(defaulted.third_party->config().tile_size, 3u);
  ASSERT_TRUE(defaulted.session->Run().ok());

  config.tile_size = 5;  // Explicit choice wins over the env.
  auto pinned =
      MakeSession(data.data.schema(), MatricesOf(parts), config).TakeValue();
  EXPECT_EQ(pinned.third_party->config().tile_size, 5u);

  ASSERT_EQ(unsetenv("PPC_TILE_SIZE"), 0);
  auto off =
      MakeSession(data.data.schema(), MatricesOf(parts), config).TakeValue();
  EXPECT_EQ(off.third_party->config().tile_size, 5u);

  // The env-tiled run still matches the tile_size 0 matrices bit for bit.
  ProtocolConfig one_range;
  SessionFixture whole = RunSession(data, parts, one_range);
  ExpectBitIdentical(*defaulted.third_party, *whole.third_party,
                     data.data.schema(), "env-tiled");
}

}  // namespace
}  // namespace ppc
