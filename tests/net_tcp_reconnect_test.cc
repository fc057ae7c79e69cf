// Crash-tolerant TCP: a dead connection must surface as ONE typed
// kUnavailable send, and the next send must transparently re-dial and
// re-run the HMAC connection handshake. Channel nonce counters live above
// the connection, so frames sealed after the reconnect decrypt cleanly at
// the receiver — the authenticated channel continues, nothing replays.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>

#include "net/tcp_network.h"

namespace ppc {
namespace {

constexpr std::chrono::milliseconds kNetTimeout{20000};

/// Two endpoints, one party each, routed at each other over loopback.
struct Pair {
  std::unique_ptr<TcpNetwork> a;
  std::unique_ptr<TcpNetwork> b;
};

Pair MakePair() {
  Pair pair;
  pair.a = TcpNetwork::Create({}).TakeValue();
  pair.b = TcpNetwork::Create({}).TakeValue();
  EXPECT_TRUE(pair.a->RegisterParty("A").ok());
  EXPECT_TRUE(pair.b->RegisterParty("B").ok());
  EXPECT_TRUE(
      pair.a->AddRemoteParty("B", "127.0.0.1", pair.b->listen_port()).ok());
  EXPECT_TRUE(
      pair.b->AddRemoteParty("A", "127.0.0.1", pair.a->listen_port()).ok());
  pair.a->set_receive_timeout(kNetTimeout);
  pair.b->set_receive_timeout(kNetTimeout);
  return pair;
}

TEST(TcpReconnectTest, DeadConnectionFailsTypedThenNextSendRedials) {
  Pair net = MakePair();

  // m1 establishes the connection (dial + HMAC handshake) and crosses it.
  ASSERT_TRUE(net.a->Send("A", "B", "t", "m1").ok());
  auto m1 = net.b->Receive("B", "A", "t", nullptr);
  ASSERT_TRUE(m1.ok()) << m1.status().ToString();
  EXPECT_EQ(m1->payload, "m1");

  // The peer "crashes": every established connection goes dead under the
  // sender's feet.
  net.a->DropEstablishedConnectionsForTesting();

  // Exactly one send burns on the corpse, typed — the transport does NOT
  // retry the in-flight frame behind the protocol's back.
  Status dead = net.a->Send("A", "B", "t", "m2-lost");
  EXPECT_EQ(dead.code(), StatusCode::kUnavailable) << dead.ToString();
  EXPECT_NE(dead.message().find("peer connection lost"), std::string::npos)
      << dead.ToString();

  // The next send re-dials, re-handshakes, and delivers. The frame is
  // sealed with the channel's NEXT nonce (the counter outlives the
  // connection), so the receiver's auth-decrypt accepts it.
  ASSERT_TRUE(net.a->Send("A", "B", "t", "m3").ok());
  auto m3 = net.b->Receive("B", "A", "t", nullptr);
  ASSERT_TRUE(m3.ok()) << m3.status().ToString();
  EXPECT_EQ(m3->payload, "m3");
  EXPECT_EQ(m3->topic, "t");

  // Nothing from the dead window leaks in later.
  EXPECT_EQ(net.b->PendingCount("B"), 0u);
}

TEST(TcpReconnectTest, SurvivesRepeatedConnectionLoss) {
  Pair net = MakePair();
  size_t delivered = 0;
  for (int round = 0; round < 3; ++round) {
    const std::string payload = "round-" + std::to_string(round);
    // First send of the round either rides the live connection (round 0)
    // or burns typed on the one we just killed; the retry must always go
    // through on a fresh connection.
    Status first = net.a->Send("A", "B", "t", payload);
    if (!first.ok()) {
      EXPECT_EQ(first.code(), StatusCode::kUnavailable) << first.ToString();
      ASSERT_TRUE(net.a->Send("A", "B", "t", payload).ok()) << payload;
    }
    auto msg = net.b->Receive("B", "A", "t", nullptr);
    ASSERT_TRUE(msg.ok()) << msg.status().ToString();
    EXPECT_EQ(msg->payload, payload);
    ++delivered;
    net.a->DropEstablishedConnectionsForTesting();
  }
  EXPECT_EQ(delivered, 3u);

  // The reverse direction dials its own connections and is untouched by
  // the forward channel's crashes.
  ASSERT_TRUE(net.b->Send("B", "A", "t", "ack").ok());
  auto ack = net.a->Receive("A", "B", "t", nullptr);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->payload, "ack");
}

}  // namespace
}  // namespace ppc
