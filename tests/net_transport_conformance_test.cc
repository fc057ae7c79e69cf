// Transport-conformance suite: every `Network` backend must honor the
// same contract — FIFO per directed channel, blocking receive with
// timeout, strict topic checking, send-side byte accounting, taps,
// registry edge cases, and rejection of tampered frames. The suite runs
// identically over `InMemoryNetwork` and `TcpNetwork`, which is what makes
// the two interchangeable under the protocol stack.
//
// Every case additionally runs in a *multiplexed* mode: the backend is
// wrapped in a `SessionNetwork` view bound to session "s1" while chaff
// traffic sits queued on session "s2" of the same transport. The whole
// contract must hold bit-identically with a foreign session in flight,
// and the chaff must come out of "s2" untouched afterwards — that is the
// isolation guarantee concurrent clustering sessions rely on.
//
// The scope cases pin the one scope rule of `Network`: the plain
// observation calls read every session on a transport and the bound
// session alone on a `SessionNetwork` view, and the reserved
// `kAllSessions` scope never names a session that could carry a frame.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/session_registry.h"
#include "net/faulty_network.h"
#include "net/in_memory_network.h"
#include "net/network.h"
#include "net/session_network.h"
#include "net/tcp_network.h"

namespace ppc {
namespace {

enum class BackendKind { kInMemory, kTcp };

struct ConformanceParam {
  BackendKind backend;
  TransportSecurity security;
  bool multiplexed;
};

constexpr char kChaffSession[] = "s2";
constexpr char kChaffTopic[] = "chaff.t";

std::string ParamName(const ::testing::TestParamInfo<ConformanceParam>& info) {
  std::string name = info.param.backend == BackendKind::kInMemory
                         ? "InMemory"
                         : "Tcp";
  name += info.param.security == TransportSecurity::kPlaintext ? "Plaintext"
                                                               : "Encrypted";
  if (info.param.multiplexed) name += "Mux";
  return name;
}

class TransportConformanceTest
    : public ::testing::TestWithParam<ConformanceParam> {
 protected:
  void SetUp() override {
    if (GetParam().backend == BackendKind::kInMemory) {
      base_ = std::make_unique<InMemoryNetwork>(GetParam().security);
    } else {
      TcpNetwork::Options options;
      options.security = GetParam().security;
      auto created = TcpNetwork::Create(options);
      ASSERT_TRUE(created.ok()) << created.status().ToString();
      base_ = std::move(created).TakeValue();
    }
    ASSERT_TRUE(base_->RegisterParty("A").ok());
    ASSERT_TRUE(base_->RegisterParty("B").ok());
    ASSERT_TRUE(base_->RegisterParty("TP").ok());
    // TCP delivery is asynchronous; a nonzero timeout is the contract's
    // only guaranteed way to observe a sent frame, and it must be a no-op
    // for the in-memory backend.
    base_->set_receive_timeout(std::chrono::milliseconds(5000));
    if (GetParam().multiplexed) {
      // Park chaff on a foreign session before wrapping: no case below
      // may ever observe it through the "s1"-bound view.
      ASSERT_TRUE(
          base_->SendOn(kChaffSession, "A", "B", kChaffTopic, "chaff-1").ok());
      ASSERT_TRUE(
          base_->SendOn(kChaffSession, "A", "B", kChaffTopic, "chaff-2").ok());
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (base_->PendingCountOn(kChaffSession, "B") != 2) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "chaff frames never arrived";
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      view_ = std::make_unique<SessionNetwork>(base_.get(), "s1");
      net_ = view_.get();
    } else {
      net_ = base_.get();
    }
  }

  void TearDown() override {
    if (!GetParam().multiplexed || base_ == nullptr) return;
    // Whatever the case did on "s1", the foreign session's frames are
    // still queued and still decode to their original payloads.
    EXPECT_EQ(base_->PendingCountOn(kChaffSession, "B"), 2u);
    auto first =
        base_->ReceiveOn(kChaffSession, "B", "A", kChaffTopic, nullptr);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_EQ(first->payload, "chaff-1");
    EXPECT_EQ(first->session, kChaffSession);
    auto second =
        base_->ReceiveOn(kChaffSession, "B", "A", kChaffTopic, nullptr);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_EQ(second->payload, "chaff-2");
  }

  /// Polls until `to` has `expected` pending messages on `net` (TCP
  /// needs the event loop to drain the socket first).
  bool WaitForPending(const std::string& to, size_t expected,
                      Network* net = nullptr) {
    if (net == nullptr) net = net_;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (net->PendingCount(to) != expected) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  std::unique_ptr<Network> base_;
  std::unique_ptr<SessionNetwork> view_;
  /// The network under test: the backend itself, or its "s1" view.
  Network* net_ = nullptr;
};

TEST_P(TransportConformanceTest, DeliversPayloadIntact) {
  std::string payload("bytes \x01\x02\x00 with nul", 18);
  ASSERT_TRUE(net_->Send("A", "B", "topic.x", payload).ok());
  auto msg = net_->Receive("B", "A", "topic.x", nullptr);
  ASSERT_TRUE(msg.ok()) << msg.status().ToString();
  EXPECT_EQ(msg->payload, payload);
  EXPECT_EQ(msg->from, "A");
  EXPECT_EQ(msg->to, "B");
  EXPECT_EQ(msg->topic, "topic.x");
}

TEST_P(TransportConformanceTest, FifoPerDirectedChannel) {
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(net_->Send("A", "B", "t", "msg-" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 32; ++i) {
    auto msg = net_->Receive("B", "A", "t", nullptr);
    ASSERT_TRUE(msg.ok()) << msg.status().ToString();
    EXPECT_EQ(msg->payload, "msg-" + std::to_string(i));
  }
}

TEST_P(TransportConformanceTest, InterleavedSendersSelectedByFrom) {
  ASSERT_TRUE(net_->Send("A", "TP", "t", "from-a").ok());
  ASSERT_TRUE(net_->Send("B", "TP", "t", "from-b").ok());
  EXPECT_EQ(net_->Receive("TP", "B", "t", nullptr)->payload, "from-b");
  EXPECT_EQ(net_->Receive("TP", "A", "t", nullptr)->payload, "from-a");
}

TEST_P(TransportConformanceTest, TopicMismatchIsProtocolViolationAndKeeps) {
  ASSERT_TRUE(net_->Send("A", "B", "actual", "x").ok());
  auto wrong = net_->Receive("B", "A", "expected", nullptr);
  EXPECT_EQ(wrong.status().code(), StatusCode::kProtocolViolation);
  // The message stays queued and the next well-topiced receive gets it.
  auto right = net_->Receive("B", "A", "actual", nullptr);
  ASSERT_TRUE(right.ok()) << right.status().ToString();
  EXPECT_EQ(right->payload, "x");
}

TEST_P(TransportConformanceTest, BlockingReceiveWakesOnLateArrival) {
  std::thread sender([this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(net_->Send("A", "B", "late", "worth the wait").ok());
  });
  auto msg = net_->Receive("B", "A", "late", nullptr);
  sender.join();
  ASSERT_TRUE(msg.ok()) << msg.status().ToString();
  EXPECT_EQ(msg->payload, "worth the wait");
}

TEST_P(TransportConformanceTest, EmptyChannelTimesOutAsUnavailable) {
  net_->set_receive_timeout(std::chrono::milliseconds(50));
  const auto start = std::chrono::steady_clock::now();
  auto msg = net_->Receive("B", "A", "t", nullptr);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Typed: an exhausted blocking wait means the peer is unreachable or
  // stalled (kUnavailable); only the zero-timeout probe is kNotFound.
  EXPECT_EQ(msg.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(elapsed, std::chrono::milliseconds(45));
  // The decorated message names who was waiting on whom.
  EXPECT_NE(msg.status().message().find("'A' to 'B'"), std::string::npos)
      << msg.status().message();
}

TEST_P(TransportConformanceTest, ZeroTimeoutIsImmediateNotFound) {
  net_->set_receive_timeout(std::chrono::milliseconds(0));
  EXPECT_EQ(net_->Receive("B", "A", "t", nullptr).status().code(),
            StatusCode::kNotFound);
}

TEST_P(TransportConformanceTest, UnknownPartiesRejected) {
  EXPECT_EQ(net_->Send("ghost", "B", "t", "x").code(), StatusCode::kNotFound);
  EXPECT_EQ(net_->Send("A", "ghost", "t", "x").code(), StatusCode::kNotFound);
  net_->set_receive_timeout(std::chrono::milliseconds(0));
  EXPECT_EQ(net_->Receive("ghost", "A", "", nullptr).status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(net_->HasParty("ghost"));
  EXPECT_TRUE(net_->HasParty("A"));
}

TEST_P(TransportConformanceTest, DuplicateRegistrationRejected) {
  // Parties belong to the transport, not a session: the base rejects a
  // duplicate, while a session view tolerates it (N concurrent sessions
  // all "register" the same shared roster).
  EXPECT_EQ(base_->RegisterParty("A").code(), StatusCode::kAlreadyExists);
  if (GetParam().multiplexed) {
    EXPECT_TRUE(net_->RegisterParty("A").ok());
  }
  EXPECT_EQ(net_->RegisterParty("").code(), StatusCode::kInvalidArgument);
}

TEST_P(TransportConformanceTest, StatsCountPayloadAndWireBytesExactly) {
  ASSERT_TRUE(net_->Send("A", "B", "t", std::string(100, 'x')).ok());
  ASSERT_TRUE(net_->Send("A", "B", "t", std::string(28, 'y')).ok());
  ChannelStats stats = net_->StatsFor("A", "B");
  EXPECT_EQ(stats.messages, 2u);
  EXPECT_EQ(stats.payload_bytes, 128u);
  if (GetParam().security == TransportSecurity::kPlaintext) {
    EXPECT_EQ(stats.wire_bytes, 128u);
  } else {
    // nonce (8) + MAC (16) per message, identical on every backend.
    EXPECT_EQ(stats.wire_bytes, 128u + 2 * 24u);
  }
}

TEST_P(TransportConformanceTest, StatsAggregationsAndReset) {
  ASSERT_TRUE(net_->Send("A", "B", "t", "12345").ok());
  ASSERT_TRUE(net_->Send("A", "TP", "t", "123").ok());
  ASSERT_TRUE(net_->Send("B", "TP", "t", "1").ok());
  EXPECT_EQ(net_->TotalSentBy("A").payload_bytes, 8u);
  EXPECT_EQ(net_->GrandTotal().payload_bytes, 9u);
  EXPECT_EQ(net_->GrandTotal().messages, 3u);
  net_->ResetStats();
  EXPECT_EQ(net_->GrandTotal().messages, 0u);
}

TEST_P(TransportConformanceTest, PendingCountObservesDeliveries) {
  EXPECT_EQ(net_->PendingCount("B"), 0u);
  ASSERT_TRUE(net_->Send("A", "B", "t", "x").ok());
  ASSERT_TRUE(net_->Send("TP", "B", "t", "y").ok());
  EXPECT_TRUE(WaitForPending("B", 2));
  EXPECT_EQ(net_->PendingCount("ghost"), 0u);
}

TEST_P(TransportConformanceTest, TapSeesExactlyTheWireBytes) {
  std::vector<WireFrame> captured;
  net_->AddTap("A", "B", [&](const WireFrame& f) { captured.push_back(f); });
  ASSERT_TRUE(net_->Send("A", "B", "t", "secret-value").ok());
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].from, "A");
  EXPECT_EQ(captured[0].topic, "t");
  if (GetParam().security == TransportSecurity::kPlaintext) {
    EXPECT_EQ(captured[0].wire_bytes, "secret-value");
  } else {
    EXPECT_EQ(captured[0].wire_bytes.find("secret-value"), std::string::npos);
  }
  // Either way the legitimate receiver sees the plaintext.
  EXPECT_EQ(net_->Receive("B", "A", "t", nullptr)->payload, "secret-value");
}

TEST_P(TransportConformanceTest, NoncesStayFreshAcrossResetStats) {
  if (GetParam().security != TransportSecurity::kAuthenticatedEncryption) {
    GTEST_SKIP() << "nonces only exist on the encrypted transport";
  }
  std::vector<std::string> frames;
  net_->AddTap("A", "B",
               [&](const WireFrame& f) { frames.push_back(f.wire_bytes); });
  ASSERT_TRUE(net_->Send("A", "B", "t", "same-payload").ok());
  net_->ResetStats();
  EXPECT_EQ(net_->StatsFor("A", "B").messages, 0u);
  ASSERT_TRUE(net_->Send("A", "B", "t", "same-payload").ok());
  ASSERT_EQ(frames.size(), 2u);
  // A reset must not rewind the nonce counter: identical plaintexts still
  // encrypt to different frames, and both still authenticate.
  EXPECT_NE(frames[0], frames[1]);
  EXPECT_EQ(net_->Receive("B", "A", "t", nullptr)->payload, "same-payload");
  EXPECT_EQ(net_->Receive("B", "A", "t", nullptr)->payload, "same-payload");
  // Counters restarted from zero after the reset.
  EXPECT_EQ(net_->StatsFor("A", "B").messages, 1u);
}

TEST_P(TransportConformanceTest, TruncatedInjectedFrameIsDataLoss) {
  if (GetParam().security != TransportSecurity::kAuthenticatedEncryption) {
    GTEST_SKIP() << "plaintext frames have no integrity envelope";
  }
  // Shorter than nonce+MAC: the receiver must flag data loss, not parse.
  ASSERT_TRUE(net_->InjectFrame("A", "B", "t", "short").ok());
  EXPECT_EQ(net_->Receive("B", "A", "t", nullptr).status().code(),
            StatusCode::kDataLoss);
}

TEST_P(TransportConformanceTest, TamperedInjectedFrameFailsTheMac) {
  if (GetParam().security != TransportSecurity::kAuthenticatedEncryption) {
    GTEST_SKIP() << "plaintext frames have no integrity envelope";
  }
  ASSERT_TRUE(net_->InjectFrame("A", "B", "t", std::string(48, 'z')).ok());
  EXPECT_EQ(net_->Receive("B", "A", "t", nullptr).status().code(),
            StatusCode::kProtocolViolation);
}

TEST_P(TransportConformanceTest, InjectedPlaintextFrameIsDeliveredVerbatim) {
  if (GetParam().security != TransportSecurity::kPlaintext) {
    GTEST_SKIP() << "verbatim delivery is the plaintext-mode behavior";
  }
  ASSERT_TRUE(net_->InjectFrame("A", "B", "t", "raw-wire-bytes").ok());
  auto msg = net_->Receive("B", "A", "t", nullptr);
  ASSERT_TRUE(msg.ok()) << msg.status().ToString();
  EXPECT_EQ(msg->payload, "raw-wire-bytes");
}

TEST_P(TransportConformanceTest, InjectFrameSkipsAccounting) {
  ASSERT_TRUE(
      net_->InjectFrame("A", "B", "t", std::string(64, 'q')).ok());
  EXPECT_EQ(net_->StatsFor("A", "B").messages, 0u);
}

// --------------------------------------------------------- scope rule --

void ExpectSameStats(const ChannelStats& got, const ChannelStats& want,
                     const std::string& what) {
  EXPECT_EQ(got.messages, want.messages) << what;
  EXPECT_EQ(got.payload_bytes, want.payload_bytes) << what;
  EXPECT_EQ(got.wire_bytes, want.wire_bytes) << what;
}

void Add(ChannelStats* total, const ChannelStats& add) {
  total->messages += add.messages;
  total->payload_bytes += add.payload_bytes;
  total->wire_bytes += add.wire_bytes;
}

TEST_P(TransportConformanceTest, EverySessionScopeSumsTheSessions) {
  // Every session with traffic on this transport. The chaff session's
  // frames predate the taps and stay queued for TearDown.
  std::vector<std::string> sessions = {"x1", "x2", kDefaultSession};
  if (GetParam().multiplexed) {
    sessions.push_back("s1");
    sessions.push_back(kChaffSession);
  }
  size_t all_taps = 0;
  std::map<std::string, size_t> session_taps;
  base_->AddTap("A", "B", [&](const WireFrame&) { ++all_taps; });
  for (const std::string& session : sessions) {
    base_->AddTapOn(session, "A", "B",
                    [&, session](const WireFrame&) { ++session_taps[session]; });
  }
  ASSERT_TRUE(base_->SendOn("x1", "A", "B", "t", "12345").ok());
  ASSERT_TRUE(base_->SendOn("x2", "A", "B", "t", "123").ok());
  ASSERT_TRUE(base_->SendOn("x2", "A", "TP", "t", "1").ok());
  ASSERT_TRUE(base_->Send("A", "B", "t", "22").ok());
  size_t pending = 3;
  if (GetParam().multiplexed) {
    ASSERT_TRUE(net_->Send("A", "B", "t", "4444").ok());  // On "s1".
    pending += 3;  // Plus the two chaff frames.
  }
  ASSERT_TRUE(WaitForPending("B", pending, base_.get()));

  ChannelStats a_to_b, sent_by_a, grand;
  size_t pending_sum = 0;
  size_t taps_sum = 0;
  for (const std::string& session : sessions) {
    Add(&a_to_b, base_->StatsOn(session, "A", "B"));
    Add(&sent_by_a, base_->TotalSentByOn(session, "A"));
    Add(&grand, base_->GrandTotalOn(session));
    pending_sum += base_->PendingCountOn(session, "B");
    taps_sum += session_taps[session];
  }
  EXPECT_EQ(a_to_b.messages, GetParam().multiplexed ? 6u : 3u);
  ExpectSameStats(base_->StatsFor("A", "B"), a_to_b, "StatsFor");
  ExpectSameStats(base_->StatsOn(kAllSessions, "A", "B"), a_to_b, "StatsOn");
  ExpectSameStats(base_->TotalSentBy("A"), sent_by_a, "TotalSentBy");
  ExpectSameStats(base_->GrandTotal(), grand, "GrandTotal");
  EXPECT_EQ(base_->PendingCount("B"), pending_sum);
  EXPECT_EQ(base_->PendingCountOn(kAllSessions, "B"), pending_sum);
  EXPECT_EQ(all_taps, taps_sum);
  EXPECT_EQ(all_taps, GetParam().multiplexed ? 4u : 3u);
}

TEST_P(TransportConformanceTest, ViewScopesEveryPlainCallToItsSession) {
  SessionNetwork view(base_.get(), "x1");
  size_t view_taps = 0;
  size_t x1_taps = 0;
  view.AddTap("A", "B", [&](const WireFrame&) { ++view_taps; });
  base_->AddTapOn("x1", "A", "B", [&](const WireFrame&) { ++x1_taps; });
  ASSERT_TRUE(view.Send("A", "B", "t", "12345").ok());
  ASSERT_TRUE(base_->SendOn("x2", "A", "B", "t", "123").ok());
  ASSERT_TRUE(base_->Send("A", "B", "t", "1").ok());
  ASSERT_TRUE(
      WaitForPending("B", GetParam().multiplexed ? 5u : 3u, base_.get()));

  ExpectSameStats(view.StatsFor("A", "B"), base_->StatsOn("x1", "A", "B"),
                  "StatsFor");
  EXPECT_EQ(view.StatsFor("A", "B").payload_bytes, 5u);
  ExpectSameStats(view.TotalSentBy("A"), base_->TotalSentByOn("x1", "A"),
                  "TotalSentBy");
  ExpectSameStats(view.GrandTotal(), base_->GrandTotalOn("x1"), "GrandTotal");
  EXPECT_EQ(view.GrandTotal().messages, 1u);
  EXPECT_EQ(view.PendingCount("B"), base_->PendingCountOn("x1", "B"));
  EXPECT_EQ(view.PendingCount("B"), 1u);
  EXPECT_EQ(view_taps, 1u);
  EXPECT_EQ(x1_taps, 1u);
  // An explicit id passes through the view untouched.
  ExpectSameStats(view.StatsOn("x2", "A", "B"), base_->StatsOn("x2", "A", "B"),
                  "StatsOn(x2)");
  EXPECT_EQ(view.PendingCountOn("x2", "B"), 1u);
  auto got = view.Receive("B", "A", "t", nullptr);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->payload, "12345");
  EXPECT_EQ(got->session, "x1");
}

TEST_P(TransportConformanceTest, ReservedScopeNamesNoSession) {
  const std::string all = kAllSessions;
  EXPECT_EQ(base_->SendOn(all, "A", "B", "t", "x").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(base_->InjectFrameOn(all, "A", "B", "t", "x").code(),
            StatusCode::kInvalidArgument);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(base_->ReceiveOn(all, "B", "A", "t", nullptr).status().code(),
            StatusCode::kInvalidArgument);
  // Refused up front, not after the 5 s receive timeout.
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(4));
  // A chaos wrapper refuses before its draw, so a drop cannot hide it.
  FaultProfile drop_all;
  drop_all.drop_probability = 1.0;
  FaultyNetwork chaos(base_.get(), drop_all, 1);
  EXPECT_EQ(chaos.SendOn(all, "A", "B", "t", "x").code(),
            StatusCode::kInvalidArgument);
  SessionRegistry registry(base_.get());
  EXPECT_EQ(registry
                .StartSession(all, [](Network*, CancelToken*) {
                  return Status::OK();
                })
                .code(),
            StatusCode::kInvalidArgument);
  // Nothing reached a channel: only the fixture's chaff exists.
  const uint64_t chaff = GetParam().multiplexed ? 2 : 0;
  EXPECT_EQ(base_->GrandTotal().messages, chaff);
  EXPECT_EQ(base_->PendingCount("B"), chaff);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, TransportConformanceTest,
    ::testing::Values(
        ConformanceParam{BackendKind::kInMemory, TransportSecurity::kPlaintext,
                         false},
        ConformanceParam{BackendKind::kInMemory,
                         TransportSecurity::kAuthenticatedEncryption, false},
        ConformanceParam{BackendKind::kTcp, TransportSecurity::kPlaintext,
                         false},
        ConformanceParam{BackendKind::kTcp,
                         TransportSecurity::kAuthenticatedEncryption, false},
        ConformanceParam{BackendKind::kInMemory, TransportSecurity::kPlaintext,
                         true},
        ConformanceParam{BackendKind::kInMemory,
                         TransportSecurity::kAuthenticatedEncryption, true},
        ConformanceParam{BackendKind::kTcp, TransportSecurity::kPlaintext,
                         true},
        ConformanceParam{BackendKind::kTcp,
                         TransportSecurity::kAuthenticatedEncryption, true}),
    ParamName);

// --------------------------------------------------------- TCP-specific --

TEST(TcpNetworkTest, ListenPortIsResolved) {
  auto net = TcpNetwork::Create({});
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  EXPECT_GT((*net)->listen_port(), 0);
}

TEST(TcpNetworkTest, RemoteAndLocalNamesCannotCollide) {
  auto net = TcpNetwork::Create({});
  ASSERT_TRUE(net.ok());
  ASSERT_TRUE((*net)->RegisterParty("A").ok());
  EXPECT_EQ((*net)->AddRemoteParty("A", "127.0.0.1", 1).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE((*net)->AddRemoteParty("R", "127.0.0.1", 1).ok());
  EXPECT_EQ((*net)->RegisterParty("R").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ((*net)->AddRemoteParty("R", "127.0.0.1", 2).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE((*net)->HasParty("R"));
}

TEST(TcpNetworkTest, RejectsUnparseableHosts) {
  auto net = TcpNetwork::Create({});
  ASSERT_TRUE(net.ok());
  EXPECT_EQ((*net)->AddRemoteParty("X", "not-a-host", 1).code(),
            StatusCode::kInvalidArgument);
  TcpNetwork::Options bad;
  bad.listen_host = "999.999.0.1";
  EXPECT_EQ(TcpNetwork::Create(bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TcpNetworkTest, CrossEndpointDelivery) {
  // Two endpoints, one party each — the minimal genuinely-distributed
  // topology, both directions.
  auto net_a = TcpNetwork::Create({});
  auto net_b = TcpNetwork::Create({});
  ASSERT_TRUE(net_a.ok() && net_b.ok());
  ASSERT_TRUE((*net_a)->RegisterParty("A").ok());
  ASSERT_TRUE((*net_b)->RegisterParty("B").ok());
  ASSERT_TRUE(
      (*net_a)->AddRemoteParty("B", "127.0.0.1", (*net_b)->listen_port())
          .ok());
  ASSERT_TRUE(
      (*net_b)->AddRemoteParty("A", "127.0.0.1", (*net_a)->listen_port())
          .ok());
  (*net_a)->set_receive_timeout(std::chrono::milliseconds(5000));
  (*net_b)->set_receive_timeout(std::chrono::milliseconds(5000));

  ASSERT_TRUE((*net_a)->Send("A", "B", "ping", "over the wire").ok());
  auto at_b = (*net_b)->Receive("B", "A", "ping", nullptr);
  ASSERT_TRUE(at_b.ok()) << at_b.status().ToString();
  EXPECT_EQ(at_b->payload, "over the wire");

  ASSERT_TRUE((*net_b)->Send("B", "A", "pong", "and back").ok());
  auto at_a = (*net_a)->Receive("A", "B", "pong", nullptr);
  ASSERT_TRUE(at_a.ok()) << at_a.status().ToString();
  EXPECT_EQ(at_a->payload, "and back");

  // Send-side accounting lands on the sending endpoint.
  EXPECT_EQ((*net_a)->StatsFor("A", "B").messages, 1u);
  EXPECT_EQ((*net_b)->StatsFor("B", "A").messages, 1u);
  EXPECT_EQ((*net_a)->StatsFor("B", "A").messages, 0u);
}

TEST(TcpNetworkTest, EarlyFramesWaitForRegistrationAndThenDeliver) {
  // The multi-process startup race: a fast peer's frames reach an
  // endpoint before the slow process registers its party. They must be
  // parked and delivered on registration — losing a hello deadlocks a
  // whole protocol run.
  auto net_a = TcpNetwork::Create({});
  auto net_b = TcpNetwork::Create({});
  ASSERT_TRUE(net_a.ok() && net_b.ok());
  ASSERT_TRUE((*net_a)->RegisterParty("A").ok());
  ASSERT_TRUE(
      (*net_a)->AddRemoteParty("B", "127.0.0.1", (*net_b)->listen_port())
          .ok());
  // B's endpoint is listening but "B" is not registered yet.
  ASSERT_TRUE((*net_a)->Send("A", "B", "hello", "first").ok());
  ASSERT_TRUE((*net_a)->Send("A", "B", "hello", "second").ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((*net_b)->UnclaimedFrameCount() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ((*net_b)->UnclaimedFrameCount(), 2u);
  EXPECT_EQ((*net_b)->PendingCount("B"), 0u);

  ASSERT_TRUE((*net_b)->RegisterParty("B").ok());
  EXPECT_EQ((*net_b)->UnclaimedFrameCount(), 0u);
  (*net_b)->set_receive_timeout(std::chrono::milliseconds(5000));
  // Drained in arrival order: per-channel FIFO survives the stash.
  EXPECT_EQ((*net_b)->Receive("B", "A", "hello", nullptr)->payload, "first");
  EXPECT_EQ((*net_b)->Receive("B", "A", "hello", nullptr)->payload, "second");
  EXPECT_EQ((*net_b)->DroppedFrameCount(), 0u);
}

}  // namespace
}  // namespace ppc
