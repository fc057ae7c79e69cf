// Failure-injection tests: malformed, tampered, out-of-order and spoofed
// protocol messages must surface as typed Status errors at the receiving
// party — never as crashes, hangs, or silently wrong matrices. This is the
// robustness layer a semi-honest deployment still needs against bugs and
// transport corruption.

#include <gtest/gtest.h>

#include "common/serde.h"
#include "core/config.h"
#include "core/data_holder.h"
#include "core/third_party.h"
#include "core/topics.h"
#include "data/schema.h"
#include "net/in_memory_network.h"

namespace ppc {
namespace {

Schema IntegerSchema() {
  return Schema::Create({{"v", AttributeType::kInteger}}).TakeValue();
}

DataMatrix SmallColumn(const Schema& schema, std::vector<int64_t> values) {
  DataMatrix data(schema);
  for (int64_t v : values) {
    EXPECT_TRUE(data.AppendRow({Value::Integer(v)}).ok());
  }
  return data;
}

/// Fixture with registered parties and completed hello/roster + key
/// agreement, so individual protocol steps can be driven (and sabotaged)
/// by hand.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = IntegerSchema();
    network_ = std::make_unique<InMemoryNetwork>(TransportSecurity::kPlaintext);
    tp_ = std::make_unique<ThirdParty>("TP", network_.get(), config_, schema_,
                                       1);
    a_ = std::make_unique<DataHolder>("A", network_.get(), config_, 2);
    b_ = std::make_unique<DataHolder>("B", network_.get(), config_, 3);
    ASSERT_TRUE(network_->RegisterParty("TP").ok());
    ASSERT_TRUE(network_->RegisterParty("A").ok());
    ASSERT_TRUE(network_->RegisterParty("B").ok());
    ASSERT_TRUE(a_->SetData(SmallColumn(schema_, {1, 2, 3})).ok());
    ASSERT_TRUE(b_->SetData(SmallColumn(schema_, {10, 20})).ok());

    ASSERT_TRUE(a_->SendHello("TP").ok());
    ASSERT_TRUE(b_->SendHello("TP").ok());
    ASSERT_TRUE(tp_->ReceiveHellos({"A", "B"}).ok());
    ASSERT_TRUE(tp_->BroadcastRoster().ok());
    ASSERT_TRUE(a_->ReceiveRoster("TP").ok());
    ASSERT_TRUE(b_->ReceiveRoster("TP").ok());

    ASSERT_TRUE(a_->SendDhPublic("B").ok());
    ASSERT_TRUE(b_->SendDhPublic("A").ok());
    ASSERT_TRUE(a_->ReceiveDhPublicAndDerive("B").ok());
    ASSERT_TRUE(b_->ReceiveDhPublicAndDerive("A").ok());
    ASSERT_TRUE(a_->SendDhPublic("TP").ok());
    ASSERT_TRUE(tp_->SendDhPublic("A").ok());
    ASSERT_TRUE(a_->ReceiveDhPublicAndDerive("TP").ok());
    ASSERT_TRUE(tp_->ReceiveDhPublicAndDerive("A").ok());
    ASSERT_TRUE(b_->SendDhPublic("TP").ok());
    ASSERT_TRUE(tp_->SendDhPublic("B").ok());
    ASSERT_TRUE(b_->ReceiveDhPublicAndDerive("TP").ok());
    ASSERT_TRUE(tp_->ReceiveDhPublicAndDerive("B").ok());
  }

  ProtocolConfig config_;
  Schema schema_;
  std::unique_ptr<InMemoryNetwork> network_;
  std::unique_ptr<ThirdParty> tp_;
  std::unique_ptr<DataHolder> a_, b_;
};

// Every phase-4/5 payload below is a row-range message: local matrices
// carry [row_begin, row_end) of the holder's triangle, comparison results
// [row_begin, row_end) of the responder's rows. A round over all rows is
// the one-range case.

TEST_F(FaultInjectionTest, TruncatedLocalMatrixIsDataLoss) {
  ByteWriter writer;
  writer.WriteU32(0);  // Attribute.
  writer.WriteU64(3);  // Claims 3 objects...
  writer.WriteU64(0);  // ...rows [0, 3)...
  writer.WriteU64(3);
  writer.WriteU32(99);  // ...then garbage instead of an F64 vector.
  ASSERT_TRUE(network_->Send("A", "TP", topics::kLocalMatrix,
                             writer.TakeBytes())
                  .ok());
  EXPECT_EQ(tp_->ReceiveLocalMatrixTile("A").code(), StatusCode::kDataLoss);
}

TEST_F(FaultInjectionTest, LocalMatrixWrongObjectCountIsProtocolViolation) {
  ByteWriter writer;
  writer.WriteU32(0);
  writer.WriteU64(5);  // Roster says A has 3 objects.
  writer.WriteU64(0);
  writer.WriteU64(5);
  writer.WriteF64Vector(std::vector<double>(10, 0.0));
  ASSERT_TRUE(network_->Send("A", "TP", topics::kLocalMatrix,
                             writer.TakeBytes())
                  .ok());
  EXPECT_EQ(tp_->ReceiveLocalMatrixTile("A").code(),
            StatusCode::kProtocolViolation);
}

TEST_F(FaultInjectionTest, LocalMatrixForUnknownAttributeRejected) {
  ByteWriter writer;
  writer.WriteU32(7);  // Schema has one attribute.
  writer.WriteU64(3);
  writer.WriteU64(0);
  writer.WriteU64(3);
  writer.WriteF64Vector(std::vector<double>(3, 0.0));
  ASSERT_TRUE(network_->Send("A", "TP", topics::kLocalMatrix,
                             writer.TakeBytes())
                  .ok());
  EXPECT_EQ(tp_->ReceiveLocalMatrixTile("A").code(),
            StatusCode::kProtocolViolation);
}

/// A numeric comparison payload from B for attribute 0: rows
/// [row_begin, row_end) of B against `cols` initiator objects.
std::string ComparisonPayload(const std::string& initiator, uint8_t mode_tag,
                              uint64_t row_begin, uint64_t row_end,
                              uint64_t cols) {
  ByteWriter writer;
  writer.WriteU32(0);
  writer.WriteBytes(initiator);
  writer.WriteU8(mode_tag);
  writer.WriteU64(row_begin);
  writer.WriteU64(row_end);
  writer.WriteU64(cols);
  writer.WriteU64Vector(std::vector<uint64_t>((row_end - row_begin) * cols, 0));
  return writer.TakeBytes();
}

constexpr uint8_t kBatchTag = static_cast<uint8_t>(MaskingMode::kBatch);

TEST_F(FaultInjectionTest, ComparisonMatrixShapeMismatchRejected) {
  // B's two rows against 9 initiator columns; A has 3 objects.
  ASSERT_TRUE(network_->Send("B", "TP", topics::kNumericComparison,
                             ComparisonPayload("A", kBatchTag, 0, 2, 9))
                  .ok());
  ASSERT_TRUE(tp_->CollectComparisonTile(0, "A", "B", 0).ok());
  EXPECT_EQ(tp_->InstallComparisonTile(0, "A", "B", 0, 2).code(),
            StatusCode::kProtocolViolation);
}

TEST_F(FaultInjectionTest, ComparisonMatrixFromUnknownInitiatorRejected) {
  ASSERT_TRUE(network_->Send("B", "TP", topics::kNumericComparison,
                             ComparisonPayload("Mallory", kBatchTag, 0, 2, 3))
                  .ok());
  ASSERT_TRUE(tp_->CollectComparisonTile(0, "Mallory", "B", 0).ok());
  EXPECT_EQ(tp_->InstallComparisonTile(0, "Mallory", "B", 0, 2).code(),
            StatusCode::kNotFound);
}

TEST_F(FaultInjectionTest, UnknownMaskingModeTagRejected) {
  ASSERT_TRUE(network_->Send("B", "TP", topics::kNumericComparison,
                             ComparisonPayload("A", /*mode_tag=*/42, 0, 2, 3))
                  .ok());
  ASSERT_TRUE(tp_->CollectComparisonTile(0, "A", "B", 0).ok());
  EXPECT_EQ(tp_->InstallComparisonTile(0, "A", "B", 0, 2).code(),
            StatusCode::kProtocolViolation);
}

TEST_F(FaultInjectionTest, ComparisonRowRangeTheScheduleDidNotExpectRejected) {
  // A well-formed payload for B's rows [1, 2), arriving where the schedule
  // expects the one range [0, 2).
  ASSERT_TRUE(network_->Send("B", "TP", topics::kNumericComparison,
                             ComparisonPayload("A", kBatchTag, 1, 2, 3))
                  .ok());
  ASSERT_TRUE(tp_->CollectComparisonTile(0, "A", "B", 0).ok());
  EXPECT_EQ(tp_->InstallComparisonTile(0, "A", "B", 0, 2).code(),
            StatusCode::kProtocolViolation);
}

TEST_F(FaultInjectionTest, ResponderRejectsWrongAttributeFromInitiator) {
  // A masks attribute 0 but B expects... a different attribute index.
  ASSERT_TRUE(a_->RunNumericInitiator(0, "B").ok());
  // Corrupt expectation: B processes the message as if it were attribute 1
  // (the schema only has attribute 0; the mismatch must be caught before
  // any arithmetic).
  ASSERT_TRUE(b_->ReceiveNumericMaskedShared(1, "A", /*uses=*/1).ok());
  EXPECT_EQ(b_->BuildNumericComparisonTile(1, "A", 0, 2).code(),
            StatusCode::kProtocolViolation);
}

TEST_F(FaultInjectionTest, OutOfOrderStepIsTopicViolation) {
  // TP asks for a comparison result while only a local-matrix payload is
  // queued under a different topic.
  ByteWriter writer;
  writer.WriteU64(123);
  ASSERT_TRUE(
      network_->Send("B", "TP", topics::kLocalMatrix, writer.TakeBytes())
          .ok());
  EXPECT_EQ(tp_->CollectComparisonTile(0, "A", "B", 0).code(),
            StatusCode::kProtocolViolation);
}

TEST_F(FaultInjectionTest, StepsWithoutKeyAgreementFailCleanly) {
  // A fresh holder that skipped DH cannot initiate.
  DataHolder c("C", network_.get(), config_, 9);
  ASSERT_TRUE(network_->RegisterParty("C").ok());
  ASSERT_TRUE(c.SetData(SmallColumn(schema_, {5})).ok());
  ASSERT_TRUE(c.SendHello("TP").ok());
  EXPECT_EQ(c.RunNumericInitiator(0, "A").code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(FaultInjectionTest, CategoricalTokensBeforeKeyDistribution) {
  EXPECT_EQ(a_->SendCategoricalTokens(0, "TP").code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(FaultInjectionTest, FinalizeCategoricalWithMissingHolder) {
  EXPECT_EQ(tp_->FinalizeCategorical(0).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(FaultInjectionTest, NormalizeBeforeCollectionStillSafe) {
  // Normalizing straight away is allowed (matrices exist, all zero) — but
  // clustering without Run()'s full collection must not crash either.
  EXPECT_TRUE(tp_->NormalizeMatrices().ok());
}

TEST(TamperedTransportTest, BitflipOnEncryptedFrameFailsMacCheck) {
  InMemoryNetwork net(TransportSecurity::kAuthenticatedEncryption);
  ASSERT_TRUE(net.RegisterParty("A").ok());
  ASSERT_TRUE(net.RegisterParty("B").ok());
  std::string frame;
  net.AddTap("A", "B", [&](const WireFrame& f) { frame = f.wire_bytes; });
  ASSERT_TRUE(net.Send("A", "B", "t", "attack at dawn").ok());
  // Drop the genuine message, then inject a bit-flipped copy of the frame.
  ASSERT_TRUE(net.Receive("B", "A", "t", nullptr).ok());
  std::string tampered = frame;
  tampered[10] = static_cast<char>(tampered[10] ^ 0x01);
  ASSERT_TRUE(net.InjectFrame("A", "B", "t", tampered).ok());
  EXPECT_EQ(net.Receive("B", "A", "t", nullptr).status().code(),
            StatusCode::kProtocolViolation);
}

TEST(TamperedTransportTest, TopicSubstitutionFailsMacCheck) {
  // The MAC binds the topic: replaying a frame under a different topic is
  // rejected even though the bytes are authentic.
  InMemoryNetwork net(TransportSecurity::kAuthenticatedEncryption);
  ASSERT_TRUE(net.RegisterParty("A").ok());
  ASSERT_TRUE(net.RegisterParty("B").ok());
  std::string frame;
  net.AddTap("A", "B", [&](const WireFrame& f) { frame = f.wire_bytes; });
  ASSERT_TRUE(net.Send("A", "B", "numeric.masked_vector", "payload").ok());
  ASSERT_TRUE(net.Receive("B", "A", "numeric.masked_vector", nullptr).ok());
  ASSERT_TRUE(net.InjectFrame("A", "B", "matrix.local", frame).ok());
  EXPECT_EQ(net.Receive("B", "A", "matrix.local", nullptr).status().code(),
            StatusCode::kProtocolViolation);
}

TEST(TamperedTransportTest, CrossChannelReplayFailsMacCheck) {
  // An A->B frame replayed on the B->A channel fails (directional keys).
  InMemoryNetwork net(TransportSecurity::kAuthenticatedEncryption);
  ASSERT_TRUE(net.RegisterParty("A").ok());
  ASSERT_TRUE(net.RegisterParty("B").ok());
  std::string frame;
  net.AddTap("A", "B", [&](const WireFrame& f) { frame = f.wire_bytes; });
  ASSERT_TRUE(net.Send("A", "B", "t", "payload").ok());
  ASSERT_TRUE(net.Receive("B", "A", "t", nullptr).ok());
  ASSERT_TRUE(net.InjectFrame("B", "A", "t", frame).ok());
  EXPECT_EQ(net.Receive("A", "B", "t", nullptr).status().code(),
            StatusCode::kProtocolViolation);
}

TEST(TamperedTransportTest, TruncatedFrameRejected) {
  InMemoryNetwork net(TransportSecurity::kAuthenticatedEncryption);
  ASSERT_TRUE(net.RegisterParty("A").ok());
  ASSERT_TRUE(net.RegisterParty("B").ok());
  ASSERT_TRUE(net.InjectFrame("A", "B", "t", "short").ok());
  EXPECT_EQ(net.Receive("B", "A", "t", nullptr).status().code(),
            StatusCode::kDataLoss);
}

TEST(TamperedTransportTest, HonestReplayIsStillDelivered) {
  // Replaying the *identical* frame on the same channel decrypts fine (the
  // transport has no replay window by design; the protocol layer's strict
  // step sequencing is what makes replays harmless). Documented behavior,
  // pinned here.
  InMemoryNetwork net(TransportSecurity::kAuthenticatedEncryption);
  ASSERT_TRUE(net.RegisterParty("A").ok());
  ASSERT_TRUE(net.RegisterParty("B").ok());
  std::string frame;
  net.AddTap("A", "B", [&](const WireFrame& f) { frame = f.wire_bytes; });
  ASSERT_TRUE(net.Send("A", "B", "t", "payload").ok());
  ASSERT_TRUE(net.Receive("B", "A", "t", nullptr).ok());
  ASSERT_TRUE(net.InjectFrame("A", "B", "t", frame).ok());
  auto replayed = net.Receive("B", "A", "t", nullptr);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->payload, "payload");
}

}  // namespace
}  // namespace ppc
