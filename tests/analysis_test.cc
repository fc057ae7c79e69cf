// Tests for src/analysis: the communication-cost model must match measured
// wire traffic exactly (E8-E10), the frequency-analysis attack must succeed
// against batch masking and fail against per-pair masking (E11), the
// eavesdropping inference must work on plaintext channels only (E12), and
// masked transcripts must pass uniformity checks.

#include <gtest/gtest.h>

#include "analysis/comm_model.h"
#include "analysis/eavesdrop.h"
#include "analysis/frequency_attack.h"
#include "analysis/stats.h"
#include "core/numeric_protocol.h"
#include "core/schedule.h"
#include "core/topics.h"
#include "data/generators.h"
#include "data/partition.h"
#include "rng/distributions.h"
#include "session_test_util.h"

namespace ppc {
namespace {

using testutil::MakeSession;
using testutil::MatricesOf;

// --------------------------------------------------------------- E8-E10 ---

struct TopicBytes {
  uint64_t masked = 0;
  uint64_t comparison = 0;
  uint64_t local = 0;
  uint64_t tokens = 0;
  uint64_t alnum_masked = 0;
  uint64_t alnum_grids = 0;
};

/// Runs a 2-party session over `data` on a plaintext transport with taps on
/// every channel, summing payload bytes per protocol topic.
TopicBytes MeasureSession(const LabeledDataset& data,
                          const ProtocolConfig& config,
                          std::vector<LabeledDataset>* parts_out) {
  auto parts = Partitioner::ByFractions(data, {0.5, 0.5}).TakeValue();
  auto fixture = MakeSession(data.data.schema(), MatricesOf(parts), config,
                             TransportSecurity::kPlaintext)
                     .TakeValue();
  TopicBytes bytes;
  auto tap = [&bytes](const WireFrame& frame) {
    if (frame.topic == topics::kNumericMasked) {
      bytes.masked += frame.wire_bytes.size();
    } else if (frame.topic == topics::kNumericComparison) {
      bytes.comparison += frame.wire_bytes.size();
    } else if (frame.topic == topics::kLocalMatrix) {
      bytes.local += frame.wire_bytes.size();
    } else if (frame.topic == topics::kCategoricalTokens) {
      bytes.tokens += frame.wire_bytes.size();
    } else if (frame.topic == topics::kAlnumMasked) {
      bytes.alnum_masked += frame.wire_bytes.size();
    } else if (frame.topic == topics::kAlnumGrids) {
      bytes.alnum_grids += frame.wire_bytes.size();
    }
  };
  for (const char* from : {"A", "B"}) {
    for (const char* to : {"A", "B", "TP"}) {
      if (std::string(from) != to) fixture.network->AddTap(from, to, tap);
    }
  }
  EXPECT_TRUE(fixture.session->Run().ok());
  if (parts_out != nullptr) *parts_out = std::move(parts);
  return bytes;
}

/// The `kind` steps of the schedule graph `MeasureSession` ran. The
/// PPC_TILE_SIZE override (the CI tiled leg) is resolved exactly as
/// MakeSession resolves it, so the closed forms below are summed over the
/// row ranges the session actually sent.
std::vector<ScheduleStep> SessionSteps(const LabeledDataset& data,
                                       const std::vector<LabeledDataset>& parts,
                                       const ProtocolConfig& config,
                                       StepKind kind) {
  Schedule::Options options;
  options.tile_size =
      config.tile_size > 0 ? config.tile_size : testutil::TileSizeFromEnv();
  options.masking = config.masking_mode;
  for (const LabeledDataset& part : parts) {
    options.holder_objects.push_back(part.data.NumRows());
  }
  SessionPlan plan;
  plan.holder_order = {"A", "B"};
  Schedule schedule =
      Schedule::Build(plan, data.data.schema(), options).TakeValue();
  std::vector<ScheduleStep> steps;
  for (const ScheduleStep& step : schedule.steps()) {
    if (step.kind == kind) steps.push_back(step);
  }
  return steps;
}

TEST(CommModelTest, NumericBatchTrafficMatchesModelExactly) {
  Schema schema = Schema::Create({{"v", AttributeType::kInteger}}).TakeValue();
  LabeledDataset data{DataMatrix(schema), {}};
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(data.data.AppendRow({Value::Integer(i * 3)}).ok());
    data.labels.push_back(0);
  }
  ProtocolConfig config;
  config.masking_mode = MaskingMode::kBatch;
  std::vector<LabeledDataset> parts;
  TopicBytes measured = MeasureSession(data, config, &parts);

  uint64_t n = parts[0].data.NumRows();  // Initiator A.
  uint64_t m = parts[1].data.NumRows();  // Responder B.
  uint64_t local = 0;
  for (const ScheduleStep& step :
       SessionSteps(data, parts, config, StepKind::kLocalMatrixSend)) {
    local += CommModel::LocalMatrixTilePayload(
        step.row_begin, step.RowEnd(step.actor == "A" ? n : m));
  }
  uint64_t comparison = 0;
  for (const ScheduleStep& step :
       SessionSteps(data, parts, config, StepKind::kComparisonSend)) {
    comparison += CommModel::NumericResponderTilePayload(
        n, step.row_begin, step.RowEnd(m), /*initiator_name_length=*/1);
  }
  // One masked vector, shared by every range of B's rows.
  EXPECT_EQ(measured.masked, CommModel::NumericInitiatorPayload(n));
  EXPECT_EQ(measured.comparison, comparison);
  EXPECT_EQ(measured.local, local);
}

TEST(CommModelTest, NumericPerPairTrafficGrowsToNTimesM) {
  Schema schema = Schema::Create({{"v", AttributeType::kInteger}}).TakeValue();
  LabeledDataset data{DataMatrix(schema), {}};
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(data.data.AppendRow({Value::Integer(i)}).ok());
    data.labels.push_back(0);
  }
  ProtocolConfig config;
  config.masking_mode = MaskingMode::kPerPair;
  std::vector<LabeledDataset> parts;
  TopicBytes measured = MeasureSession(data, config, &parts);
  uint64_t n = parts[0].data.NumRows();
  uint64_t m = parts[1].data.NumRows();
  uint64_t masked = 0;
  uint64_t masked_words = 0;
  for (const ScheduleStep& step :
       SessionSteps(data, parts, config, StepKind::kComparisonInit)) {
    masked += CommModel::NumericInitiatorTilePayload(n, step.row_begin,
                                                     step.RowEnd(m));
    masked_words += (step.RowEnd(m) - step.row_begin) * n;
  }
  EXPECT_EQ(measured.masked, masked);
  EXPECT_EQ(masked_words, n * m);
  // Initiator traffic strictly larger than batch whenever m > 1.
  EXPECT_GT(measured.masked, CommModel::NumericInitiatorPayload(n));
}

TEST(CommModelTest, AlphanumericTrafficMatchesModelExactly) {
  Schema schema =
      Schema::Create({{"s", AttributeType::kAlphanumeric}}).TakeValue();
  LabeledDataset data{DataMatrix(schema), {}};
  auto prng = MakePrng(PrngKind::kXoshiro256, 1);
  Alphabet dna = Alphabet::Dna();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(data.data
                    .AppendRow({Value::Alphanumeric(Generators::RandomString(
                        4 + prng->NextBounded(6), dna, prng.get()))})
                    .ok());
    data.labels.push_back(0);
  }
  ProtocolConfig config;
  std::vector<LabeledDataset> parts;
  TopicBytes measured = MeasureSession(data, config, &parts);

  std::vector<uint64_t> initiator_lengths, responder_lengths;
  for (size_t i = 0; i < parts[0].data.NumRows(); ++i) {
    initiator_lengths.push_back(parts[0].data.at(i, 0).AsString().size());
  }
  for (size_t i = 0; i < parts[1].data.NumRows(); ++i) {
    responder_lengths.push_back(parts[1].data.at(i, 0).AsString().size());
  }
  uint64_t grids = 0;
  for (const ScheduleStep& step :
       SessionSteps(data, parts, config, StepKind::kComparisonSend)) {
    grids += CommModel::AlnumResponderTilePayload(
        responder_lengths, step.row_begin,
        step.RowEnd(responder_lengths.size()), initiator_lengths,
        /*initiator_name_length=*/1);
  }
  EXPECT_EQ(measured.alnum_masked,
            CommModel::AlnumInitiatorPayload(initiator_lengths));
  EXPECT_EQ(measured.alnum_grids, grids);
}

TEST(CommModelTest, CategoricalTrafficMatchesModelExactly) {
  Schema schema =
      Schema::Create({{"c", AttributeType::kCategorical}}).TakeValue();
  LabeledDataset data{DataMatrix(schema), {}};
  for (int i = 0; i < 14; ++i) {
    ASSERT_TRUE(data.data
                    .AppendRow({Value::Categorical("v" +
                                                   std::to_string(i % 3))})
                    .ok());
    data.labels.push_back(0);
  }
  ProtocolConfig config;
  std::vector<LabeledDataset> parts;
  TopicBytes measured = MeasureSession(data, config, &parts);
  uint64_t n = parts[0].data.NumRows();
  uint64_t m = parts[1].data.NumRows();
  // Key distribution uses its own topic, so this is exactly the two token
  // columns: the paper's O(n) per party.
  EXPECT_EQ(measured.tokens,
            CommModel::CategoricalPayload(n) + CommModel::CategoricalPayload(m));
  EXPECT_EQ(measured.local, 0u);  // No local matrices for categorical.
}

// ------------------------------------------------------------------- E11 --

class FrequencyAttackTest : public ::testing::Test {
 protected:
  /// Runs the numeric protocol over small-range data and returns the
  /// attack outcome from the TP's view.
  FrequencyAttack::Outcome RunAttack(MaskingMode mode, int64_t lo, int64_t hi,
                                     size_t n, size_t m, uint64_t seed) {
    auto data_rng = MakePrng(PrngKind::kXoshiro256, seed);
    std::vector<int64_t> x(n), y(m);
    for (auto& v : x) v = Distributions::UniformInt(data_rng.get(), lo, hi);
    for (auto& v : y) v = Distributions::UniformInt(data_rng.get(), lo, hi);

    auto jk_i = MakePrng(PrngKind::kChaCha20, seed + 1);
    auto jk_r = MakePrng(PrngKind::kChaCha20, seed + 1);
    auto jt_i = MakePrng(PrngKind::kChaCha20, seed + 2);
    auto jt_tp = MakePrng(PrngKind::kChaCha20, seed + 2);

    std::vector<uint64_t> comparison;
    if (mode == MaskingMode::kBatch) {
      auto masked = NumericProtocol::MaskVector(x, jt_i.get(), jk_i.get());
      comparison =
          NumericProtocol::BuildComparisonMatrix(y, masked, jk_r.get());
    } else {
      auto masked = NumericProtocol::MaskMatrixPerPair(x, m, jt_i.get(),
                                                       jk_i.get());
      comparison = NumericProtocol::AddResponderPerPair(y, n, masked,
                                                        jk_r.get())
                       .TakeValue();
    }
    return FrequencyAttack::Run(comparison, m, n, jt_tp.get(), mode, lo, hi,
                                y)
        .TakeValue();
  }
};

TEST_F(FrequencyAttackTest, BatchModeLeaksAllPairwiseDifferences) {
  auto outcome = RunAttack(MaskingMode::kBatch, 0, 100, 6, 12, 50);
  EXPECT_EQ(outcome.difference_recovery_rate, 1.0);
  EXPECT_TRUE(outcome.true_vector_feasible);
  // With range 0..100 and a spread-out column, few offsets fit.
  EXPECT_LT(outcome.feasible_candidates, 100u);
  EXPECT_GE(outcome.feasible_candidates, 1u);
}

TEST_F(FrequencyAttackTest, TightRangePinpointsVictimValues) {
  // When the responder's values span nearly the whole public range, the
  // offset is almost unique: near-total reconstruction.
  auto outcome = RunAttack(MaskingMode::kBatch, 0, 20, 4, 40, 51);
  EXPECT_EQ(outcome.difference_recovery_rate, 1.0);
  EXPECT_TRUE(outcome.true_vector_feasible);
  EXPECT_LE(outcome.feasible_candidates, 6u);
}

TEST_F(FrequencyAttackTest, PerPairModeDefeatsTheAttack) {
  auto outcome = RunAttack(MaskingMode::kPerPair, 0, 100, 6, 12, 52);
  // Independent per-pair signs: a difference only survives when two rows
  // happen to draw the same sign, so recovery collapses from 1.0 to chance
  // level (~0.5) — and, crucially, the attacker cannot tell which half is
  // right: the true vector is no longer consistent with any offset.
  EXPECT_LT(outcome.difference_recovery_rate, 0.75);
  EXPECT_FALSE(outcome.true_vector_feasible);
}

TEST_F(FrequencyAttackTest, PerPairRecoveryAtChanceAcrossSeeds) {
  double total = 0.0;
  for (uint64_t seed = 60; seed < 70; ++seed) {
    total += RunAttack(MaskingMode::kPerPair, 0, 100, 6, 12, seed)
                 .difference_recovery_rate;
  }
  EXPECT_NEAR(total / 10.0, 0.5, 0.2);
}

TEST_F(FrequencyAttackTest, InputValidation) {
  auto rng = MakePrng(PrngKind::kChaCha20, 1);
  std::vector<uint64_t> cells{1, 2, 3, 4};
  EXPECT_FALSE(FrequencyAttack::Run(cells, 2, 3, rng.get(),
                                    MaskingMode::kBatch, 0, 10, {1, 2})
                   .ok());
  EXPECT_FALSE(FrequencyAttack::Run(cells, 2, 2, rng.get(),
                                    MaskingMode::kBatch, 0, 10, {1})
                   .ok());
  EXPECT_FALSE(FrequencyAttack::Run(cells, 2, 2, rng.get(),
                                    MaskingMode::kBatch, 10, 0, {1, 2})
                   .ok());
}

// ------------------------------------------------------------------- E12 --

TEST(EavesdropTest, CandidateRecoveryOnRawProtocol) {
  // Direct protocol-level check of the Sec. 4.1 inference: with the rJT
  // stream, every x is one of the two candidates; without it (wrong seed),
  // recovery fails.
  std::vector<int64_t> x{7, -13, 1000, 0, 42};
  auto jt = MakePrng(PrngKind::kChaCha20, 5);
  auto jk = MakePrng(PrngKind::kChaCha20, 6);
  auto masked = NumericProtocol::MaskVector(x, jt.get(), jk.get());

  ByteWriter writer;
  writer.WriteU32(0);
  writer.WriteU8(static_cast<uint8_t>(MaskingMode::kBatch));
  writer.WriteU64(0);
  writer.WriteU64Vector(masked);
  std::string frame = writer.TakeBytes();

  auto attacker_jt = MakePrng(PrngKind::kChaCha20, 5);
  auto candidates =
      EavesdropAttack::CandidatesFromFrame(frame, attacker_jt.get())
          .TakeValue();
  EXPECT_EQ(EavesdropAttack::HitRate(candidates, x), 1.0);

  auto wrong_jt = MakePrng(PrngKind::kChaCha20, 999);
  auto garbage =
      EavesdropAttack::CandidatesFromFrame(frame, wrong_jt.get()).TakeValue();
  EXPECT_LT(EavesdropAttack::HitRate(garbage, x), 0.5);
}

TEST(EavesdropTest, EncryptedFrameDoesNotParse) {
  // On the secured transport the tap sees AES-CTR ciphertext; the attack
  // either fails to parse or yields no hits.
  Schema schema = Schema::Create({{"v", AttributeType::kInteger}}).TakeValue();
  LabeledDataset data{DataMatrix(schema), {}};
  std::vector<int64_t> values{3, 17, 256, -9};
  for (int64_t v : values) {
    ASSERT_TRUE(data.data.AppendRow({Value::Integer(v)}).ok());
    data.labels.push_back(0);
  }
  auto parts = Partitioner::RoundRobin(data, 2).TakeValue();
  ProtocolConfig config;
  auto fixture = MakeSession(schema, MatricesOf(parts), config,
                             TransportSecurity::kAuthenticatedEncryption)
                     .TakeValue();
  std::string captured;
  fixture.network->AddTap("A", "B", [&](const WireFrame& frame) {
    if (frame.topic == topics::kNumericMasked) captured = frame.wire_bytes;
  });
  ASSERT_TRUE(fixture.session->Run().ok());
  ASSERT_FALSE(captured.empty());

  auto attacker_jt = MakePrng(PrngKind::kChaCha20, 5);
  auto candidates =
      EavesdropAttack::CandidatesFromFrame(captured, attacker_jt.get());
  if (candidates.ok()) {
    std::vector<int64_t> a_values{values[0], values[2]};  // A's rows.
    EXPECT_LT(EavesdropAttack::HitRate(*candidates, a_values), 1.0);
  } else {
    SUCCEED();
  }
}

// ------------------------------------------------------------- uniformity --

TEST(StatsTest, ChiSquareDetectsSkew) {
  std::vector<uint64_t> uniform(16, 1000);
  EXPECT_LT(Stats::ChiSquareUniform(uniform).TakeValue(), 1.0);
  std::vector<uint64_t> skewed(16, 1000);
  skewed[0] = 5000;
  EXPECT_GT(Stats::ChiSquareUniform(skewed).TakeValue(),
            Stats::ChiSquareCriticalValue(15, 0.001));
}

TEST(StatsTest, CriticalValueSanity) {
  // chi2(0.05, 15) ~ 25.0; Wilson-Hilferty should land close.
  EXPECT_NEAR(Stats::ChiSquareCriticalValue(15, 0.05), 25.0, 1.0);
  EXPECT_NEAR(Stats::ChiSquareCriticalValue(63, 0.05), 82.5, 2.0);
}

TEST(StatsTest, MaskedVectorsLookUniform) {
  // The message DHK receives must be "practically a random number": bucket
  // the masked words and chi-square them.
  std::vector<int64_t> x(4096, 1234567);  // Constant plaintext!
  auto jt = MakePrng(PrngKind::kChaCha20, 60);
  auto jk = MakePrng(PrngKind::kChaCha20, 61);
  auto masked = NumericProtocol::MaskVector(x, jt.get(), jk.get());
  EXPECT_TRUE(Stats::LooksUniform(masked, 64, 0.001).TakeValue());
}

TEST(StatsTest, PlaintextDoesNotLookUniform) {
  std::vector<uint64_t> plain(4096, 1234567);  // All in one bucket.
  EXPECT_FALSE(Stats::LooksUniform(plain, 64, 0.001).TakeValue());
}

TEST(StatsTest, MeanAndStdDev) {
  std::vector<double> values{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Stats::Mean(values), 2.5);
  EXPECT_NEAR(Stats::StdDev(values), 1.2909944, 1e-6);
  EXPECT_EQ(Stats::StdDev({1.0}), 0.0);
}

TEST(StatsTest, InputValidation) {
  EXPECT_FALSE(Stats::ChiSquareUniform({5}).ok());
  EXPECT_FALSE(Stats::ChiSquareUniform({0, 0}).ok());
  EXPECT_FALSE(Stats::LooksUniform({1, 2, 3}, 3, 0.01).ok());  // Not pow2.
  EXPECT_FALSE(Stats::LooksUniform({1, 2, 3}, 4, 0.01).ok());  // Too few.
}

}  // namespace
}  // namespace ppc
