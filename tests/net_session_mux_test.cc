// Session multiplexing on the shared transports: N logical sessions ride
// one physical (and, on TCP, one authenticated) connection per party
// pair. The contract under test: per-session FIFO on the same directed
// channel, cryptographic key separation between sessions, exact
// per-session accounting that sums to the legacy aggregate, session-aware
// taps, and the nonce-exhaustion refusal that keeps CTR mode sound.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "net/channel_transport.h"
#include "net/in_memory_network.h"
#include "net/network.h"
#include "net/tcp_network.h"

namespace ppc {
namespace {

enum class BackendKind { kInMemory, kTcp };

std::string ParamName(const ::testing::TestParamInfo<BackendKind>& info) {
  return info.param == BackendKind::kInMemory ? "InMemory" : "Tcp";
}

/// Both backends, always in authenticated-encryption mode: that is where
/// session separation has cryptographic teeth (plaintext coverage lives
/// in the conformance suite's multiplexed dimension).
class SessionMuxTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    if (GetParam() == BackendKind::kInMemory) {
      auto net = std::make_unique<InMemoryNetwork>(
          TransportSecurity::kAuthenticatedEncryption);
      transport_ = net.get();
      net_ = std::move(net);
    } else {
      TcpNetwork::Options options;
      options.security = TransportSecurity::kAuthenticatedEncryption;
      auto created = TcpNetwork::Create(options);
      ASSERT_TRUE(created.ok()) << created.status().ToString();
      transport_ = created->get();
      net_ = std::move(created).TakeValue();
    }
    ASSERT_TRUE(net_->RegisterParty("A").ok());
    ASSERT_TRUE(net_->RegisterParty("B").ok());
    net_->set_receive_timeout(std::chrono::milliseconds(5000));
  }

  std::unique_ptr<Network> net_;
  /// Same object as `net_`; typed access to the test-only nonce hook.
  ChannelTransport* transport_ = nullptr;
};

TEST_P(SessionMuxTest, PerSessionFifoOnOneDirectedChannel) {
  // Interleave two sessions' streams on the same A -> B channel; each
  // session must replay its own stream in order, whichever order the
  // receiver drains them in.
  for (int i = 0; i < 16; ++i) {
    const std::string& session = (i % 2 == 0) ? "odd" : "even";
    ASSERT_TRUE(
        net_->SendOn(session, "A", "B", "t", "m" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 16; i += 2) {
    // Drain alternately to prove the queues are truly independent.
    auto odd = net_->ReceiveOn("odd", "B", "A", "t", nullptr);
    ASSERT_TRUE(odd.ok()) << odd.status().ToString();
    EXPECT_EQ(odd->payload, "m" + std::to_string(i));
    EXPECT_EQ(odd->session, "odd");
    auto even = net_->ReceiveOn("even", "B", "A", "t", nullptr);
    ASSERT_TRUE(even.ok()) << even.status().ToString();
    EXPECT_EQ(even->payload, "m" + std::to_string(i + 1));
    EXPECT_EQ(even->session, "even");
  }
}

TEST_P(SessionMuxTest, DefaultSessionAndPlainCallsAreTheSameStream) {
  ASSERT_TRUE(net_->Send("A", "B", "t", "via-plain").ok());
  ASSERT_TRUE(
      net_->SendOn(kDefaultSession, "A", "B", "t", "via-session-call").ok());
  auto first = net_->ReceiveOn(kDefaultSession, "B", "A", "t", nullptr);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->payload, "via-plain");
  auto second = net_->Receive("B", "A", "t", nullptr);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->payload, "via-session-call");
}

TEST_P(SessionMuxTest, SessionsDoNotShareKeys) {
  // A frame sealed under session "s1" replayed into session "s2" must
  // fail authentication: the channel key binds the session id, so even a
  // peer holding a valid s1 frame cannot smuggle it into another
  // session's stream.
  std::string sealed;
  net_->AddTapOn("s1", "A", "B",
                 [&](const WireFrame& f) { sealed = f.wire_bytes; });
  ASSERT_TRUE(net_->SendOn("s1", "A", "B", "t", "bound to s1").ok());
  ASSERT_FALSE(sealed.empty());

  ASSERT_TRUE(net_->InjectFrameOn("s2", "A", "B", "t", sealed).ok());
  auto crossed = net_->ReceiveOn("s2", "B", "A", "t", nullptr);
  EXPECT_EQ(crossed.status().code(), StatusCode::kProtocolViolation)
      << crossed.status().ToString();

  // The very same bytes decode fine where they belong.
  auto legit = net_->ReceiveOn("s1", "B", "A", "t", nullptr);
  ASSERT_TRUE(legit.ok()) << legit.status().ToString();
  EXPECT_EQ(legit->payload, "bound to s1");
}

TEST_P(SessionMuxTest, AggregateStatsSumOverSessions) {
  ASSERT_TRUE(net_->Send("A", "B", "t", "123").ok());
  ASSERT_TRUE(net_->SendOn("s1", "A", "B", "t", "12345").ok());
  ASSERT_TRUE(net_->SendOn("s1", "A", "B", "t", "1").ok());
  ASSERT_TRUE(net_->SendOn("s2", "A", "B", "t", "1234").ok());

  EXPECT_EQ(net_->StatsOn(kDefaultSession, "A", "B").payload_bytes, 3u);
  EXPECT_EQ(net_->StatsOn("s1", "A", "B").messages, 2u);
  EXPECT_EQ(net_->StatsOn("s1", "A", "B").payload_bytes, 6u);
  EXPECT_EQ(net_->StatsOn("s2", "A", "B").payload_bytes, 4u);
  EXPECT_EQ(net_->StatsOn("never-used", "A", "B").messages, 0u);

  // The legacy aggregate views sum every session's channel exactly.
  EXPECT_EQ(net_->StatsFor("A", "B").messages, 4u);
  EXPECT_EQ(net_->StatsFor("A", "B").payload_bytes, 13u);
  EXPECT_EQ(net_->TotalSentBy("A").payload_bytes, 13u);
  EXPECT_EQ(net_->TotalSentByOn("s1", "A").payload_bytes, 6u);
  EXPECT_EQ(net_->GrandTotal().messages, 4u);
  EXPECT_EQ(net_->GrandTotalOn("s2").messages, 1u);

  // Wire accounting (nonce + MAC envelope) is also per session.
  EXPECT_EQ(net_->StatsOn("s2", "A", "B").wire_bytes, 4u + 24u);
}

TEST_P(SessionMuxTest, TapsFilterBySessionAndCarryTheSessionId) {
  std::vector<std::string> everything;
  std::vector<std::string> only_s1;
  net_->AddTap("A", "B",
               [&](const WireFrame& f) { everything.push_back(f.session); });
  net_->AddTapOn("s1", "A", "B",
                 [&](const WireFrame& f) { only_s1.push_back(f.session); });

  ASSERT_TRUE(net_->SendOn("s1", "A", "B", "t", "x").ok());
  ASSERT_TRUE(net_->SendOn("s2", "A", "B", "t", "y").ok());
  ASSERT_TRUE(net_->Send("A", "B", "t", "z").ok());

  ASSERT_EQ(everything.size(), 3u);
  EXPECT_EQ(everything[0], "s1");
  EXPECT_EQ(everything[1], "s2");
  EXPECT_EQ(everything[2], kDefaultSession);
  ASSERT_EQ(only_s1.size(), 1u);
  EXPECT_EQ(only_s1[0], "s1");
}

TEST_P(SessionMuxTest, NonceExhaustionRefusesFurtherSeals) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  ASSERT_TRUE(
      transport_->SetNonceCounterForTesting("s1", "A", "B", kMax - 1).ok());

  // One nonce left: this frame takes it and still round-trips.
  ASSERT_TRUE(net_->SendOn("s1", "A", "B", "t", "last frame").ok());
  auto msg = net_->ReceiveOn("s1", "B", "A", "t", nullptr);
  ASSERT_TRUE(msg.ok()) << msg.status().ToString();
  EXPECT_EQ(msg->payload, "last frame");

  // The space is spent: every further send refuses, permanently — the
  // counter parks rather than wrapping into nonce reuse.
  for (int i = 0; i < 3; ++i) {
    Status refused = net_->SendOn("s1", "A", "B", "t", "one too many");
    EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted)
        << refused.ToString();
  }

  // Other sessions (and the reverse direction) have their own counters.
  ASSERT_TRUE(net_->SendOn("s2", "A", "B", "t", "fine").ok());
  ASSERT_TRUE(net_->Send("A", "B", "t", "also fine").ok());
  EXPECT_EQ(net_->ReceiveOn("s2", "B", "A", "t", nullptr)->payload, "fine");
  EXPECT_EQ(net_->Receive("B", "A", "t", nullptr)->payload, "also fine");
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SessionMuxTest,
                         ::testing::Values(BackendKind::kInMemory,
                                           BackendKind::kTcp),
                         ParamName);

}  // namespace
}  // namespace ppc
