// Unit tests for src/net: routing, FIFO per channel, byte accounting,
// transport security, and eavesdropper taps.

#include <gtest/gtest.h>

#include "net/in_memory_network.h"

namespace ppc {
namespace {

class NetworkTest : public ::testing::TestWithParam<TransportSecurity> {
 protected:
  void SetUp() override {
    net_ = std::make_unique<InMemoryNetwork>(GetParam());
    ASSERT_TRUE(net_->RegisterParty("A").ok());
    ASSERT_TRUE(net_->RegisterParty("B").ok());
    ASSERT_TRUE(net_->RegisterParty("TP").ok());
  }
  std::unique_ptr<InMemoryNetwork> net_;
};

TEST_P(NetworkTest, DeliversPayloadIntact) {
  ASSERT_TRUE(net_->Send("A", "B", "topic.x", "hello bytes \x01\x02").ok());
  auto msg = net_->Receive("B", "A", "topic.x", nullptr);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->payload, "hello bytes \x01\x02");
  EXPECT_EQ(msg->from, "A");
  EXPECT_EQ(msg->topic, "topic.x");
}

TEST_P(NetworkTest, FifoPerSenderReceiverPair) {
  ASSERT_TRUE(net_->Send("A", "B", "t", "first").ok());
  ASSERT_TRUE(net_->Send("A", "B", "t", "second").ok());
  EXPECT_EQ(net_->Receive("B", "A", "t", nullptr)->payload, "first");
  EXPECT_EQ(net_->Receive("B", "A", "t", nullptr)->payload, "second");
}

TEST_P(NetworkTest, InterleavedSendersSelectedByFrom) {
  ASSERT_TRUE(net_->Send("A", "TP", "t", "from-a").ok());
  ASSERT_TRUE(net_->Send("B", "TP", "t", "from-b").ok());
  EXPECT_EQ(net_->Receive("TP", "B", "t", nullptr)->payload, "from-b");
  EXPECT_EQ(net_->Receive("TP", "A", "t", nullptr)->payload, "from-a");
}

TEST_P(NetworkTest, TopicMismatchIsProtocolViolationAndKeepsMessage) {
  ASSERT_TRUE(net_->Send("A", "B", "actual", "x").ok());
  auto wrong = net_->Receive("B", "A", "expected", nullptr);
  EXPECT_EQ(wrong.status().code(), StatusCode::kProtocolViolation);
  // Message still there.
  EXPECT_TRUE(net_->Receive("B", "A", "actual", nullptr).ok());
}

TEST_P(NetworkTest, ReceiveFromEmptyQueueIsNotFound) {
  EXPECT_EQ(net_->Receive("B", "A", "t", nullptr).status().code(),
            StatusCode::kNotFound);
}

TEST_P(NetworkTest, UnknownPartiesRejected) {
  EXPECT_EQ(net_->Send("ghost", "B", "t", "x").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(net_->Send("A", "ghost", "t", "x").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(net_->Receive("ghost", "A", "", nullptr).status().code(),
            StatusCode::kNotFound);
}

TEST_P(NetworkTest, DuplicateRegistrationRejected) {
  EXPECT_EQ(net_->RegisterParty("A").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(net_->RegisterParty("").code(), StatusCode::kInvalidArgument);
}

TEST_P(NetworkTest, StatsCountPayloadBytesExactly) {
  ASSERT_TRUE(net_->Send("A", "B", "t", std::string(100, 'x')).ok());
  ASSERT_TRUE(net_->Send("A", "B", "t", std::string(28, 'y')).ok());
  ChannelStats stats = net_->StatsFor("A", "B");
  EXPECT_EQ(stats.messages, 2u);
  EXPECT_EQ(stats.payload_bytes, 128u);
  if (GetParam() == TransportSecurity::kPlaintext) {
    EXPECT_EQ(stats.wire_bytes, 128u);
  } else {
    // nonce (8) + MAC (16) per message.
    EXPECT_EQ(stats.wire_bytes, 128u + 2 * 24u);
  }
}

TEST_P(NetworkTest, StatsAggregations) {
  ASSERT_TRUE(net_->Send("A", "B", "t", "12345").ok());
  ASSERT_TRUE(net_->Send("A", "TP", "t", "123").ok());
  ASSERT_TRUE(net_->Send("B", "TP", "t", "1").ok());
  EXPECT_EQ(net_->TotalSentBy("A").payload_bytes, 8u);
  EXPECT_EQ(net_->GrandTotal().payload_bytes, 9u);
  EXPECT_EQ(net_->GrandTotal().messages, 3u);
  net_->ResetStats();
  EXPECT_EQ(net_->GrandTotal().messages, 0u);
}

TEST_P(NetworkTest, PendingCount) {
  EXPECT_EQ(net_->PendingCount("B"), 0u);
  ASSERT_TRUE(net_->Send("A", "B", "t", "x").ok());
  ASSERT_TRUE(net_->Send("TP", "B", "t", "y").ok());
  EXPECT_EQ(net_->PendingCount("B"), 2u);
}

// ------------------------------------------------------ registry edges --
// The cases the transport-conformance suite also exercises on TcpNetwork;
// kept here too so a failure pinpoints the in-memory registry itself.

TEST_P(NetworkTest, PendingCountForUnregisteredPartyIsZero) {
  ASSERT_TRUE(net_->Send("A", "B", "t", "x").ok());
  EXPECT_EQ(net_->PendingCount("ghost"), 0u);
  EXPECT_EQ(net_->PendingCount(""), 0u);
}

TEST_P(NetworkTest, PendingCountDropsAsMessagesAreConsumed) {
  ASSERT_TRUE(net_->Send("A", "B", "t", "x").ok());
  ASSERT_TRUE(net_->Send("TP", "B", "t", "y").ok());
  ASSERT_TRUE(net_->Receive("B", "A", "t", nullptr).ok());
  EXPECT_EQ(net_->PendingCount("B"), 1u);
  ASSERT_TRUE(net_->Receive("B", "TP", "t", nullptr).ok());
  EXPECT_EQ(net_->PendingCount("B"), 0u);
}

TEST_P(NetworkTest, ReceiveFromUnregisteredSenderIsNotFound) {
  // The receiver exists but the named sender never registered: an empty
  // channel, not an error class of its own — and nothing may be consumed.
  ASSERT_TRUE(net_->Send("A", "B", "t", "x").ok());
  EXPECT_EQ(net_->Receive("B", "ghost", "t", nullptr).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(net_->PendingCount("B"), 1u);
}

TEST_P(NetworkTest, ReceiveForUnregisteredReceiverIsNotFound) {
  EXPECT_EQ(net_->Receive("ghost", "A", "t", nullptr).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(net_->Receive("", "A", "", nullptr).status().code(),
            StatusCode::kNotFound);
}

// (ResetStats nonce survival is covered for both backends by the
// transport-conformance suite's NoncesStayFreshAcrossResetStats.)

INSTANTIATE_TEST_SUITE_P(
    BothTransports, NetworkTest,
    ::testing::Values(TransportSecurity::kPlaintext,
                      TransportSecurity::kAuthenticatedEncryption),
    [](const auto& info) {
      return info.param == TransportSecurity::kPlaintext ? "Plaintext"
                                                         : "Encrypted";
    });

// ------------------------------------------------------- security-specific

TEST(NetworkSecurityTest, PlaintextTapSeesPayload) {
  InMemoryNetwork net(TransportSecurity::kPlaintext);
  ASSERT_TRUE(net.RegisterParty("A").ok());
  ASSERT_TRUE(net.RegisterParty("B").ok());
  std::vector<WireFrame> captured;
  net.AddTap("A", "B", [&](const WireFrame& f) { captured.push_back(f); });
  ASSERT_TRUE(net.Send("A", "B", "t", "secret-value").ok());
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].wire_bytes, "secret-value");
}

TEST(NetworkSecurityTest, EncryptedTapSeesOnlyCiphertext) {
  InMemoryNetwork net(TransportSecurity::kAuthenticatedEncryption);
  ASSERT_TRUE(net.RegisterParty("A").ok());
  ASSERT_TRUE(net.RegisterParty("B").ok());
  std::vector<WireFrame> captured;
  net.AddTap("A", "B", [&](const WireFrame& f) { captured.push_back(f); });
  ASSERT_TRUE(net.Send("A", "B", "t", "secret-value").ok());
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].wire_bytes.find("secret-value"), std::string::npos);
  // And the legitimate receiver still decrypts.
  EXPECT_EQ(net.Receive("B", "A", "t", nullptr)->payload, "secret-value");
}

TEST(NetworkSecurityTest, IdenticalPayloadsEncryptDifferently) {
  // Fresh nonces: resending the same plaintext must not repeat ciphertext.
  InMemoryNetwork net(TransportSecurity::kAuthenticatedEncryption);
  ASSERT_TRUE(net.RegisterParty("A").ok());
  ASSERT_TRUE(net.RegisterParty("B").ok());
  std::vector<std::string> frames;
  net.AddTap("A", "B",
             [&](const WireFrame& f) { frames.push_back(f.wire_bytes); });
  ASSERT_TRUE(net.Send("A", "B", "t", "same-payload").ok());
  ASSERT_TRUE(net.Send("A", "B", "t", "same-payload").ok());
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_NE(frames[0], frames[1]);
}

TEST(NetworkSecurityTest, DirectionalKeysDiffer) {
  InMemoryNetwork net(TransportSecurity::kAuthenticatedEncryption);
  ASSERT_TRUE(net.RegisterParty("A").ok());
  ASSERT_TRUE(net.RegisterParty("B").ok());
  std::string frame_ab, frame_ba;
  net.AddTap("A", "B", [&](const WireFrame& f) { frame_ab = f.wire_bytes; });
  net.AddTap("B", "A", [&](const WireFrame& f) { frame_ba = f.wire_bytes; });
  ASSERT_TRUE(net.Send("A", "B", "t", "same").ok());
  ASSERT_TRUE(net.Send("B", "A", "t", "same").ok());
  EXPECT_NE(frame_ab, frame_ba);
}

TEST(NetworkSecurityTest, MultipleTapsAllFire) {
  InMemoryNetwork net(TransportSecurity::kPlaintext);
  ASSERT_TRUE(net.RegisterParty("A").ok());
  ASSERT_TRUE(net.RegisterParty("B").ok());
  int count = 0;
  net.AddTap("A", "B", [&](const WireFrame&) { ++count; });
  net.AddTap("A", "B", [&](const WireFrame&) { ++count; });
  ASSERT_TRUE(net.Send("A", "B", "t", "x").ok());
  EXPECT_EQ(count, 2);
}

}  // namespace
}  // namespace ppc
