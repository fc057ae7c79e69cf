// Concurrency tests for src/net: multi-threaded senders against one
// receiver (no lost, duplicated, or reordered frames; consistent traffic
// counters) and the blocking-Receive condition-variable path.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "net/in_memory_network.h"

namespace ppc {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

class NetworkConcurrencyTest
    : public ::testing::TestWithParam<TransportSecurity> {};

TEST_P(NetworkConcurrencyTest, ManySendersOneReceiverLosesNothing) {
  constexpr size_t kSenders = 8;
  constexpr size_t kMessagesPerSender = 100;

  InMemoryNetwork net(GetParam());
  ASSERT_TRUE(net.RegisterParty("R").ok());
  for (size_t s = 0; s < kSenders; ++s) {
    ASSERT_TRUE(net.RegisterParty("S" + std::to_string(s)).ok());
  }
  net.set_receive_timeout(milliseconds(5000));

  // One receiver thread per channel drains concurrently with the senders,
  // so the endpoint mutex and condition variable see real contention.
  std::vector<std::vector<std::string>> received(kSenders);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t s = 0; s < kSenders; ++s) {
    threads.emplace_back([&net, s, &failures] {
      std::string name = "S" + std::to_string(s);
      for (size_t m = 0; m < kMessagesPerSender; ++m) {
        std::string payload = name + ":" + std::to_string(m);
        if (!net.Send(name, "R", "stress.topic", payload).ok()) {
          failures.fetch_add(1);
        }
      }
    });
    threads.emplace_back([&net, s, &received, &failures] {
      std::string name = "S" + std::to_string(s);
      for (size_t m = 0; m < kMessagesPerSender; ++m) {
        auto msg = net.Receive("R", name, "stress.topic", nullptr);
        if (!msg.ok()) {
          failures.fetch_add(1);
          return;
        }
        received[s].push_back(msg->payload);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(net.PendingCount("R"), 0u);
  for (size_t s = 0; s < kSenders; ++s) {
    std::string name = "S" + std::to_string(s);
    ASSERT_EQ(received[s].size(), kMessagesPerSender) << name;
    // FIFO per channel: payloads arrive in send order, none duplicated.
    for (size_t m = 0; m < kMessagesPerSender; ++m) {
      EXPECT_EQ(received[s][m], name + ":" + std::to_string(m));
    }
    ChannelStats stats = net.StatsFor(name, "R");
    EXPECT_EQ(stats.messages, kMessagesPerSender);
  }
  ChannelStats total = net.GrandTotal();
  EXPECT_EQ(total.messages, kSenders * kMessagesPerSender);
  // Payload byte accounting must agree with what the receivers saw.
  uint64_t expected_payload = 0;
  for (const auto& channel : received) {
    for (const std::string& payload : channel) {
      expected_payload += payload.size();
    }
  }
  EXPECT_EQ(total.payload_bytes, expected_payload);
}

TEST_P(NetworkConcurrencyTest, BlockingReceiveTimesOut) {
  InMemoryNetwork net(GetParam());
  ASSERT_TRUE(net.RegisterParty("A").ok());
  ASSERT_TRUE(net.RegisterParty("B").ok());
  net.set_receive_timeout(milliseconds(60));

  auto start = steady_clock::now();
  auto result = net.Receive("B", "A", "t", nullptr);
  auto elapsed = std::chrono::duration_cast<milliseconds>(
      steady_clock::now() - start);
  // A blocking receive that times out is a typed transport error — the
  // peer is unreachable or stalled — not the zero-timeout probe's
  // kNotFound.
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  // The wait must actually have blocked (allow generous scheduler slack
  // below the configured timeout).
  EXPECT_GE(elapsed.count(), 40);
}

TEST_P(NetworkConcurrencyTest, BlockingReceiveWakesOnArrival) {
  InMemoryNetwork net(GetParam());
  ASSERT_TRUE(net.RegisterParty("A").ok());
  ASSERT_TRUE(net.RegisterParty("B").ok());
  net.set_receive_timeout(milliseconds(5000));

  std::thread sender([&net] {
    std::this_thread::sleep_for(milliseconds(30));
    ASSERT_TRUE(net.Send("A", "B", "t", "late frame").ok());
  });
  auto msg = net.Receive("B", "A", "t", nullptr);
  sender.join();
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->payload, "late frame");
}

TEST_P(NetworkConcurrencyTest, ZeroTimeoutStaysNonBlocking) {
  InMemoryNetwork net(GetParam());
  ASSERT_TRUE(net.RegisterParty("A").ok());
  ASSERT_TRUE(net.RegisterParty("B").ok());
  // Default: no timeout configured — empty channel fails immediately.
  auto start = steady_clock::now();
  EXPECT_EQ(net.Receive("B", "A", "t", nullptr).status().code(),
            StatusCode::kNotFound);
  auto elapsed = std::chrono::duration_cast<milliseconds>(
      steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 50);
}

TEST_P(NetworkConcurrencyTest, TopicMismatchFailsFastEvenWhenBlocking) {
  // A queued frame with the wrong topic is a protocol violation the moment
  // Receive looks at it — the timeout must not delay the error.
  InMemoryNetwork net(GetParam());
  ASSERT_TRUE(net.RegisterParty("A").ok());
  ASSERT_TRUE(net.RegisterParty("B").ok());
  net.set_receive_timeout(milliseconds(5000));
  ASSERT_TRUE(net.Send("A", "B", "actual", "x").ok());

  auto start = steady_clock::now();
  auto wrong = net.Receive("B", "A", "expected", nullptr);
  auto elapsed = std::chrono::duration_cast<milliseconds>(
      steady_clock::now() - start);
  EXPECT_EQ(wrong.status().code(), StatusCode::kProtocolViolation);
  EXPECT_LT(elapsed.count(), 1000);
  // And the frame is still deliverable under its real topic.
  EXPECT_TRUE(net.Receive("B", "A", "actual", nullptr).ok());
}

TEST_P(NetworkConcurrencyTest, ConcurrentSendersOnSameChannelKeepStats) {
  // Several threads hammer the *same* directed channel: per-message FIFO
  // is only guaranteed per sending thread, but counters and nonces must
  // stay exact (every frame decrypts, none double-counts).
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 50;
  InMemoryNetwork net(GetParam());
  ASSERT_TRUE(net.RegisterParty("A").ok());
  ASSERT_TRUE(net.RegisterParty("B").ok());

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&net] {
      for (size_t m = 0; m < kPerThread; ++m) {
        ASSERT_TRUE(net.Send("A", "B", "t", "payload-xyz").ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(net.StatsFor("A", "B").messages, kThreads * kPerThread);
  EXPECT_EQ(net.PendingCount("B"), kThreads * kPerThread);
  for (size_t m = 0; m < kThreads * kPerThread; ++m) {
    auto msg = net.Receive("B", "A", "t", nullptr);
    ASSERT_TRUE(msg.ok()) << msg.status();
    EXPECT_EQ(msg->payload, "payload-xyz");
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothTransports, NetworkConcurrencyTest,
    ::testing::Values(TransportSecurity::kPlaintext,
                      TransportSecurity::kAuthenticatedEncryption),
    [](const auto& info) {
      return info.param == TransportSecurity::kPlaintext ? "Plaintext"
                                                         : "Encrypted";
    });

}  // namespace
}  // namespace ppc
