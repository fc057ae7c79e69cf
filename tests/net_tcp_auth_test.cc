// Per-connection party authentication on the TCP transport: the
// challenge-response preamble must keep arbitrary processes from
// attaching to a listener — only peers that can answer under the shared
// secret get a frame accepted (or, dialing out, get frames sent).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>

#include "common/serde.h"
#include "net/secure_channel.h"
#include "net/tcp_network.h"

namespace ppc {
namespace {

int DialRaw(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

bool SendAll(int fd, const std::string& bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + done, bytes.size() - done,
                       MSG_NOSIGNAL);
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

/// Reads until EOF or `want` bytes; returns what arrived.
std::string RecvUpTo(int fd, size_t want) {
  std::string out;
  while (out.size() < want) {
    char buffer[256];
    ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    out.append(buffer, static_cast<size_t>(n));
  }
  return out;
}

TEST(TcpAuthTest, SharedCustomSecretInterops) {
  TcpNetwork::Options options;
  options.auth_secret = "deployment-secret-42";
  auto net_a = TcpNetwork::Create(options);
  auto net_b = TcpNetwork::Create(options);
  ASSERT_TRUE(net_a.ok() && net_b.ok());
  (*net_b)->set_receive_timeout(std::chrono::seconds(10));
  ASSERT_TRUE((*net_a)->RegisterParty("A").ok());
  ASSERT_TRUE((*net_b)->RegisterParty("B").ok());
  ASSERT_TRUE(
      (*net_a)->AddRemoteParty("B", "127.0.0.1", (*net_b)->listen_port())
          .ok());
  ASSERT_TRUE((*net_a)->Send("A", "B", "t", "hello").ok());
  auto msg = (*net_b)->Receive("B", "A", "t", nullptr);
  ASSERT_TRUE(msg.ok()) << msg.status().ToString();
  EXPECT_EQ(msg->payload, "hello");
}

TEST(TcpAuthTest, MismatchedSecretFailsTheSend) {
  // The dialer verifies the listener's response before shipping a single
  // frame, so a wrong-secret deployment fails loudly at the first Send.
  TcpNetwork::Options wrong;
  wrong.auth_secret = "not-the-deployment-secret";
  auto net_a = TcpNetwork::Create({});
  auto net_b = TcpNetwork::Create(wrong);
  ASSERT_TRUE(net_a.ok() && net_b.ok());
  ASSERT_TRUE((*net_a)->RegisterParty("A").ok());
  ASSERT_TRUE((*net_b)->RegisterParty("B").ok());
  ASSERT_TRUE(
      (*net_a)->AddRemoteParty("B", "127.0.0.1", (*net_b)->listen_port())
          .ok());
  Status status = (*net_a)->Send("A", "B", "t", "hello");
  EXPECT_EQ(status.code(), StatusCode::kPermissionDenied)
      << status.ToString();
  EXPECT_EQ((*net_b)->PendingCount("B"), 0u);
}

TEST(TcpAuthTest, RawSocketWithWrongResponseCannotAttach) {
  auto net = TcpNetwork::Create({});
  ASSERT_TRUE(net.ok());
  ASSERT_TRUE((*net)->RegisterParty("B").ok());

  int fd = DialRaw((*net)->listen_port());
  // Speak the right preamble and challenge lengths but answer garbage.
  ASSERT_TRUE(SendAll(
      fd, "PPT3" + std::string(SecureChannel::kChallengeLength, 'x')));
  std::string greeting = RecvUpTo(
      fd, SecureChannel::kChallengeLength + SecureChannel::kMacLength);
  ASSERT_EQ(greeting.size(),
            SecureChannel::kChallengeLength + SecureChannel::kMacLength);
  ASSERT_TRUE(SendAll(fd, std::string(SecureChannel::kMacLength, 'y')));
  // The acceptor verifies, rejects, and closes: the next read is EOF and
  // no frame was (or could have been) delivered.
  EXPECT_EQ(RecvUpTo(fd, 1), "");
  EXPECT_EQ((*net)->PendingCount("B"), 0u);
  EXPECT_EQ((*net)->UnclaimedFrameCount(), 0u);
  ::close(fd);
}

TEST(TcpAuthTest, ObsoletePreambleVersionIsCutOff) {
  // "PPT1" (unauthenticated) and "PPT2" (no session field in the frame
  // record) are both prior wire versions; either dialer is cut off before
  // any challenge is exchanged.
  auto net = TcpNetwork::Create({});
  ASSERT_TRUE(net.ok());
  ASSERT_TRUE((*net)->RegisterParty("B").ok());
  for (const char* obsolete : {"PPT1", "PPT2"}) {
    int fd = DialRaw((*net)->listen_port());
    ASSERT_TRUE(SendAll(
        fd, obsolete + std::string(SecureChannel::kChallengeLength, 'x')));
    EXPECT_EQ(RecvUpTo(fd, 1), "") << obsolete;  // Closed, no challenge.
    ::close(fd);
  }
}

/// Dials `port` and completes the challenge-response handshake by hand,
/// as another TcpNetwork endpoint would; returns the attached socket.
int DialAuthenticated(uint16_t port) {
  const std::string auth_key =
      SecureChannel::ConnectionAuthKey(SecureChannel::kMasterKey);
  int fd = DialRaw(port);
  const std::string dialer_challenge(SecureChannel::kChallengeLength, 'c');
  EXPECT_TRUE(SendAll(fd, "PPT3" + dialer_challenge));
  std::string greeting = RecvUpTo(
      fd, SecureChannel::kChallengeLength + SecureChannel::kMacLength);
  if (greeting.size() !=
      SecureChannel::kChallengeLength + SecureChannel::kMacLength) {
    ADD_FAILURE() << "short greeting: " << greeting.size() << " bytes";
    return fd;
  }
  // The listener's own proof must verify under the shared key.
  EXPECT_EQ(greeting.substr(SecureChannel::kChallengeLength),
            SecureChannel::ConnectionAuthResponse(auth_key, "dial",
                                                  dialer_challenge));
  EXPECT_TRUE(SendAll(
      fd, SecureChannel::ConnectionAuthResponse(
              auth_key, "accept",
              greeting.substr(0, SecureChannel::kChallengeLength))));
  return fd;
}

/// One length-prefixed frame record as a peer endpoint writes it.
std::string FrameRecord(const std::string& session, const std::string& wire) {
  ByteWriter body;
  body.WriteBytes("A");
  body.WriteBytes("B");
  body.WriteBytes("t");
  body.WriteBytes(session);
  body.WriteBytes(wire);
  ByteWriter framed;
  framed.WriteU32(static_cast<uint32_t>(body.bytes().size()));
  return framed.TakeBytes() + body.TakeBytes();
}

TEST(TcpAuthTest, CorrectResponderGetsFramesAccepted) {
  // A raw socket that *can* answer the challenge is exactly what another
  // TcpNetwork endpoint does; completing the handshake by hand documents
  // the wire contract.
  auto net = TcpNetwork::Create({});
  ASSERT_TRUE(net.ok());
  (*net)->set_receive_timeout(std::chrono::seconds(10));
  ASSERT_TRUE((*net)->RegisterParty("B").ok());

  int fd = DialAuthenticated((*net)->listen_port());
  ::close(fd);  // Handshake done; no frames sent — nothing delivered.
  EXPECT_EQ((*net)->PendingCount("B"), 0u);
}

TEST(TcpAuthTest, InboundFrameOnTheEverySessionScopeIsDropped) {
  // `kAllSessions` is an observation scope, never a session: a peer that
  // writes a frame carrying it gets the frame dropped, while a real
  // session on the same connection still delivers.
  TcpNetwork::Options options;
  options.security = TransportSecurity::kPlaintext;
  auto net = TcpNetwork::Create(options);
  ASSERT_TRUE(net.ok());
  (*net)->set_receive_timeout(std::chrono::seconds(10));
  ASSERT_TRUE((*net)->RegisterParty("B").ok());

  int fd = DialAuthenticated((*net)->listen_port());
  ASSERT_TRUE(SendAll(fd, FrameRecord(kAllSessions, "scoped") +
                              FrameRecord("job", "real")));
  auto got = (*net)->ReceiveOn("job", "B", "A", "t", nullptr);
  ::close(fd);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->payload, "real");
  EXPECT_EQ((*net)->DroppedFrameCount(), 1u);
  EXPECT_EQ((*net)->PendingCount("B"), 0u);
}

}  // namespace
}  // namespace ppc
