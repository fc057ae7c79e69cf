// FaultyNetwork: the deterministic chaos wrapper. Each fault class must
// act exactly as documented — a drop is a silent hole the receiver times
// out on, a corruption is a typed integrity failure, a duplicate replays
// the sealed bytes, a reorder swaps adjacent frames, a disconnect fails
// sends fast — and the whole schedule must replay bit-for-bit from its
// (profile, seed) pair.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "net/faulty_network.h"
#include "net/in_memory_network.h"

namespace ppc {
namespace {

TEST(FaultProfileTest, ParsesKnownNames) {
  auto none = FaultProfileFromName("none");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->drop_probability, 0.0);
  EXPECT_EQ(none->disconnect_after_frames, 0u);

  auto wan = FaultProfileFromName("lossy-wan");
  ASSERT_TRUE(wan.ok());
  EXPECT_GT(wan->delay_probability, 0.0);
  EXPECT_GT(wan->max_delay_ms, 0u);
  // Lossy-WAN must stay completion-preserving: delay only.
  EXPECT_EQ(wan->drop_probability, 0.0);
  EXPECT_EQ(wan->corrupt_probability, 0.0);
  EXPECT_EQ(wan->disconnect_after_frames, 0u);

  auto crashy = FaultProfileFromName("crashy-peer");
  ASSERT_TRUE(crashy.ok());
  EXPECT_GT(crashy->disconnect_after_frames, 0u);

  EXPECT_EQ(FaultProfileFromName("bogus").status().code(),
            StatusCode::kInvalidArgument);
}

/// One wrapped in-memory transport with parties A and B registered.
struct ChaosNet {
  explicit ChaosNet(const FaultProfile& profile, uint64_t seed = 1)
      : chaos(&base, profile, seed) {
    EXPECT_TRUE(chaos.RegisterParty("A").ok());
    EXPECT_TRUE(chaos.RegisterParty("B").ok());
  }
  InMemoryNetwork base;
  FaultyNetwork chaos;
};

TEST(FaultyNetworkTest, EmptyProfileForwardsUntouched) {
  ChaosNet net(FaultProfile{});
  ASSERT_TRUE(net.chaos.Send("A", "B", "t", "hello").ok());
  auto msg = net.chaos.Receive("B", "A", "t", nullptr);
  ASSERT_TRUE(msg.ok()) << msg.status().ToString();
  EXPECT_EQ(msg->payload, "hello");
  const auto counts = net.chaos.fault_counts();
  EXPECT_EQ(counts.dropped + counts.delayed + counts.duplicated +
                counts.reordered + counts.corrupted + counts.disconnected,
            0u);
}

TEST(FaultyNetworkTest, DropIsASilentHole) {
  FaultProfile profile;
  profile.drop_probability = 1.0;
  ChaosNet net(profile);
  // The send "succeeds" — that is the point: a lossy network does not
  // tell the sender.
  ASSERT_TRUE(net.chaos.Send("A", "B", "t", "gone").ok());
  EXPECT_EQ(net.chaos.PendingCount("B"), 0u);
  // A blocking receive discovers the hole as a typed transport timeout.
  net.chaos.set_receive_timeout(std::chrono::milliseconds(30));
  EXPECT_EQ(net.chaos.Receive("B", "A", "t", nullptr).status().code(),
            StatusCode::kUnavailable);
  EXPECT_GE(net.chaos.fault_counts().dropped, 1u);
}

TEST(FaultyNetworkTest, CorruptionIsATypedIntegrityFailure) {
  FaultProfile profile;
  profile.corrupt_probability = 1.0;
  ChaosNet net(profile);
  ASSERT_TRUE(net.chaos.Send("A", "B", "t", "precious").ok());
  auto msg = net.chaos.Receive("B", "A", "t", nullptr);
  ASSERT_FALSE(msg.ok());
  // MAC/parse failure at the receiver — never a silently wrong payload.
  EXPECT_TRUE(msg.status().code() == StatusCode::kDataLoss ||
              msg.status().code() == StatusCode::kProtocolViolation)
      << msg.status().ToString();
  EXPECT_GE(net.chaos.fault_counts().corrupted, 1u);
}

TEST(FaultyNetworkTest, DelayDeliversIntact) {
  FaultProfile profile;
  profile.delay_probability = 1.0;
  profile.max_delay_ms = 2;
  ChaosNet net(profile);
  ASSERT_TRUE(net.chaos.Send("A", "B", "t", "late but whole").ok());
  auto msg = net.chaos.Receive("B", "A", "t", nullptr);
  ASSERT_TRUE(msg.ok()) << msg.status().ToString();
  EXPECT_EQ(msg->payload, "late but whole");
  EXPECT_GE(net.chaos.fault_counts().delayed, 1u);
}

TEST(FaultyNetworkTest, DuplicateReplaysTheSealedFrame) {
  FaultProfile profile;
  profile.duplicate_probability = 1.0;
  ChaosNet net(profile);
  ASSERT_TRUE(net.chaos.Send("A", "B", "t", "twice").ok());
  // Both the original and the replayed sealed bytes are queued; with no
  // replay protection in the channel framing (each frame carries its own
  // nonce) the duplicate decrypts identically — the protocol experiences
  // it as an unexpected extra frame, which the topic discipline turns
  // into a typed error at the next differently-topiced receive.
  EXPECT_EQ(net.chaos.PendingCount("B"), 2u);
  auto first = net.chaos.Receive("B", "A", "t", nullptr);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->payload, "twice");
  auto replay = net.chaos.Receive("B", "A", "t", nullptr);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->payload, "twice");
  EXPECT_GE(net.chaos.fault_counts().duplicated, 1u);
}

TEST(FaultyNetworkTest, ReorderSwapsAdjacentFrames) {
  FaultProfile profile;
  profile.reorder_probability = 1.0;
  ChaosNet net(profile);
  ASSERT_TRUE(net.chaos.Send("A", "B", "t1", "first").ok());
  // "first" is held; nothing has crossed yet.
  EXPECT_EQ(net.chaos.PendingCount("B"), 0u);
  ASSERT_TRUE(net.chaos.Send("A", "B", "t2", "second").ok());
  // The release round passes "second" through, then releases "first":
  // delivery (and sealing) order is second, first — each frame
  // individually valid on the authenticated channel.
  auto a = net.chaos.Receive("B", "A", "", nullptr);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->payload, "second");
  EXPECT_EQ(a->topic, "t2");
  auto b = net.chaos.Receive("B", "A", "", nullptr);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(b->payload, "first");
  EXPECT_EQ(b->topic, "t1");
  EXPECT_EQ(net.chaos.fault_counts().reordered, 1u);
}

TEST(FaultyNetworkTest, DisconnectFailsSendsFastAfterBudget) {
  FaultProfile profile;
  profile.disconnect_after_frames = 2;
  ChaosNet net(profile);
  ASSERT_TRUE(net.chaos.Send("A", "B", "t", "one").ok());
  ASSERT_TRUE(net.chaos.Send("A", "B", "t", "two").ok());
  Status dead = net.chaos.Send("A", "B", "t", "three");
  EXPECT_EQ(dead.code(), StatusCode::kUnavailable);
  EXPECT_NE(dead.message().find("chaos"), std::string::npos) << dead.ToString();
  // Frames inside the budget were delivered; the dead channel stays dead.
  EXPECT_EQ(net.chaos.PendingCount("B"), 2u);
  EXPECT_EQ(net.chaos.Send("A", "B", "t", "four").code(),
            StatusCode::kUnavailable);
  EXPECT_GE(net.chaos.fault_counts().disconnected, 2u);
  // The budget is per directed channel: B -> A is unaffected.
  EXPECT_TRUE(net.chaos.Send("B", "A", "t", "back").ok());
}

TEST(FaultyNetworkTest, ScheduleReplaysExactlyFromSeed) {
  FaultProfile profile;
  profile.drop_probability = 0.3;
  profile.corrupt_probability = 0.2;
  profile.delay_probability = 0.2;
  profile.max_delay_ms = 1;

  auto run = [&profile](uint64_t seed) {
    ChaosNet net(profile, seed);
    net.chaos.set_receive_timeout(std::chrono::milliseconds(0));
    std::vector<std::string> delivered;
    for (int i = 0; i < 40; ++i) {
      (void)net.chaos.Send("A", "B", "t", "frame-" + std::to_string(i));
    }
    for (;;) {
      auto msg = net.chaos.Receive("B", "A", "", nullptr);
      if (!msg.ok()) {
        if (msg.status().code() == StatusCode::kNotFound) break;
        delivered.push_back("<" + std::string(StatusCodeToString(
                                      msg.status().code())) + ">");
        continue;
      }
      delivered.push_back(msg->payload);
    }
    const auto counts = net.chaos.fault_counts();
    return std::make_pair(delivered,
                          std::vector<uint64_t>{counts.dropped, counts.delayed,
                                                counts.corrupted});
  };

  const auto first = run(42);
  const auto again = run(42);
  EXPECT_EQ(first.first, again.first);
  EXPECT_EQ(first.second, again.second);
  // The schedule did something, and a different seed schedules
  // differently (42 vs 43 diverge on this frame count).
  EXPECT_GT(first.second[0] + first.second[2], 0u);
  EXPECT_NE(first.first, run(43).first);
}

TEST(FaultyNetworkTest, PurgeSessionDropsHeldChaosState) {
  FaultProfile profile;
  profile.reorder_probability = 1.0;
  ChaosNet net(profile);
  ASSERT_TRUE(net.chaos.SendOn("job", "A", "B", "t", "held forever").ok());
  EXPECT_EQ(net.chaos.PendingCountOn("job", "B"), 0u);
  net.chaos.PurgeSession("job");
  // The held frame died with the session; fresh traffic on another
  // session starts a fresh schedule (first frame held again, released by
  // the second), with no resurrected bytes in between.
  ASSERT_TRUE(net.chaos.SendOn("job2", "A", "B", "t", "x").ok());
  ASSERT_TRUE(net.chaos.SendOn("job2", "A", "B", "t", "y").ok());
  auto a = net.chaos.ReceiveOn("job2", "B", "A", "", nullptr);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->payload, "y");
  auto b = net.chaos.ReceiveOn("job2", "B", "A", "", nullptr);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(b->payload, "x");
  EXPECT_EQ(net.chaos.PendingCountOn("job", "B"), 0u);
}

}  // namespace
}  // namespace ppc
