#ifndef PPC_NET_TCP_NETWORK_H_
#define PPC_NET_TCP_NETWORK_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/channel_transport.h"
#include "net/event_loop.h"
#include "net/secure_channel.h"

namespace ppc {

/// TCP `Network` backend: the paper's deployment for real — each OS
/// process hosts one (or more) parties, and frames travel over
/// loopback/BSD sockets instead of in-process queues.
///
/// One `TcpNetwork` instance is one transport endpoint: it listens on
/// `Options::listen_host:listen_port`, hosts the parties registered via
/// `RegisterParty`, and knows how to reach remote parties added with
/// `AddRemoteParty`. Every frame — including frames between two parties
/// hosted on the *same* instance — crosses a real TCP connection, so a
/// single-process run over this backend still exercises the exact bytes a
/// multi-machine deployment would ship.
///
/// Wire format per connection: a 4-byte preamble "PPT3" followed by a
/// mutual HMAC challenge-response handshake over a key derived from
/// `Options::auth_secret` (dialer sends its 16-byte challenge with the
/// preamble; the acceptor answers with its own challenge plus the
/// response; the dialer verifies and responds in turn — distinct
/// direction labels prevent reflection). No frame is accepted, in either
/// direction, before the peer proves knowledge of the shared secret, so
/// arbitrary processes can no longer attach to a listener. Then
/// length-prefixed frames (u32 little-endian byte count, then a serde
/// record: from, to, topic, session, wire bytes). The session field is
/// what multiplexes N concurrent logical clustering sessions over the one
/// authenticated connection per endpoint pair — this connection pool is
/// shared by every session. The wire bytes themselves carry the same
/// per-(session, directed channel) AES-128-CTR + HMAC framing as
/// `InMemoryNetwork` (both inherit it from `ChannelTransport` /
/// `SecureChannel`), so captures, byte accounting and the eavesdropping
/// experiments are identical across backends. Handshake bytes are
/// connection plumbing, not protocol traffic: they appear in no channel's
/// stats or taps (like the preamble itself). ("PPT2" framed the record
/// without the session field; "PPT1" was the unauthenticated predecessor;
/// peers of either version are cut off at the preamble.)
///
/// Semantics relative to the `Network` contract:
///   * Delivery is FIFO per (session, directed channel) — all frames
///     between two endpoints share one ordered connection per direction,
///     and the demux preserves arrival order within each session stream.
///   * Delivery is asynchronous: `Send` returns once the frame is written
///     to the socket; observe arrivals via `Receive` with a nonzero
///     `receive_timeout`.
///   * Stats/taps/nonce counters are accounted on the sending endpoint;
///     each directed channel has exactly one sending endpoint, so nonces
///     never collide across processes. Accounting happens at frame
///     preparation, before the socket write: a `Send` that then fails
///     (dead peer) is still counted and tapped — the run is aborting on
///     that error anyway, and a spent nonce must never be reused.
///   * Frames arriving for a party this endpoint has not (yet) registered
///     are parked and handed over by `RegisterParty` — a fast peer's
///     hello cannot be lost to the startup race of a slow process.
///
/// Thread-safe. Inbound I/O — accepting, the acceptor side of the
/// handshake, frame reassembly — runs on one `EventLoop` thread
/// multiplexing every connection over epoll, so the endpoint's thread
/// count is constant no matter how many peers connect or how many
/// sessions share the transport. Outbound writes run on the sending
/// protocol threads, serialized per connection, so sends never queue
/// behind an event loop.
class TcpNetwork : public ChannelTransport {
 public:
  struct Options {
    /// Local listen address. Port 0 lets the kernel pick (see
    /// `listen_port()`); IPv4 only — the paper's sites are a handful of
    /// named endpoints, and loopback is the test deployment.
    std::string listen_host = "127.0.0.1";
    uint16_t listen_port = 0;
    TransportSecurity security = TransportSecurity::kAuthenticatedEncryption;
    /// How long `Send` keeps retrying a refused dial before failing —
    /// covers the startup race where a peer process has not bound its
    /// listener yet. Retries back off exponentially with jitter (capped),
    /// so a herd of daemons restarting does not hammer the listener in
    /// lockstep.
    std::chrono::milliseconds connect_timeout{5000};
    /// Secret behind the per-connection challenge-response preamble. All
    /// endpoints of one deployment must share it; it defaults to the same
    /// provisioned-out-of-band master secret the channel keys derive from
    /// (`SecureChannel::kMasterKey`). A connection whose peer cannot
    /// answer the challenge is dropped before any frame is read, and
    /// `Send` fails with kPermissionDenied when the *listener* cannot
    /// prove itself.
    std::string auth_secret = SecureChannel::kMasterKey;
  };

  /// Binds the listener and starts the event loop.
  static Result<std::unique_ptr<TcpNetwork>> Create(const Options& options);

  ~TcpNetwork() override;

  /// The bound listen port (resolves kernel-assigned port 0).
  uint16_t listen_port() const { return listen_port_; }

  /// Declares `name` reachable at `host:port` (another TcpNetwork's
  /// listener). Fails with kAlreadyExists if the name is already local or
  /// remote.
  Status AddRemoteParty(const std::string& name, const std::string& host,
                        uint16_t port);

  // -- The backend half of the Network contract ------------------------------

  Status RegisterParty(const std::string& name) override
      EXCLUDES(registry_mutex_);
  bool HasParty(const std::string& name) const override
      EXCLUDES(registry_mutex_);
  Status SendOn(const std::string& session, const std::string& from,
                const std::string& to, const std::string& topic,
                std::string payload) override EXCLUDES(registry_mutex_);
  Status InjectFrameOn(const std::string& session, const std::string& from,
                       const std::string& to, const std::string& topic,
                       std::string wire_bytes) override
      EXCLUDES(registry_mutex_);

  /// Frames currently parked for parties this endpoint does not (yet)
  /// host; they are delivered the moment `RegisterParty` runs, preserving
  /// per-channel FIFO order.
  uint64_t UnclaimedFrameCount() const {
    return unclaimed_frames_.load(std::memory_order_relaxed);
  }

  /// Frames dropped on arrival: because the unclaimed stash overflowed (a
  /// peer flooding a name this endpoint never registers), or because they
  /// belong to a session this endpoint has retired or carry the reserved
  /// `kAllSessions` scope. TCP has no way to bounce them back to the
  /// caller.
  uint64_t DroppedFrameCount() const {
    return dropped_frames_.load(std::memory_order_relaxed);
  }

  /// Chaos hook: `shutdown()`s every established outbound connection, as
  /// a crashed peer or dropped link would. The next send on each
  /// destination fails fast with `kUnavailable` and tears the connection
  /// down; the send after that re-dials (capped backoff), re-runs the
  /// HMAC handshake, and continues the channels' monotone nonce
  /// sequences — the reconnect path the recovery tests pin down.
  void DropEstablishedConnectionsForTesting() EXCLUDES(conn_mutex_);

 private:
  struct RemoteAddress {
    std::string host;
    uint16_t port = 0;
  };

  /// One outbound connection, keyed by "host:port" in the shared pool.
  /// The write mutex serializes whole frames (dial included), which is
  /// what preserves per-channel FIFO when several protocol threads — and
  /// several sessions — send to the same endpoint. `fd` is atomic rather
  /// than GUARDED_BY(write_mutex) for exactly one reason: the destructor
  /// must `shutdown()` a connection mid-write to unblock a stuck sender,
  /// and taking write_mutex there would wait on the very writer it is
  /// trying to release. Writers still mutate fd only under write_mutex;
  /// the lifecycle paths swap it with `exchange` so a send error and the
  /// destructor can never double-close one fd.
  struct Connection {
    std::atomic<int> fd{-1};
    Mutex write_mutex;
  };

  /// One accepted connection's state machine, driven by the event loop:
  /// nonblocking reads accumulate into `inbuf`, and `AdvanceConn` parses
  /// as much handshake/frame data as has arrived. Touched only on the
  /// loop thread.
  struct InboundConn {
    int fd = -1;
    enum class Phase {
      kAwaitHello,     // Expecting preamble + dialer challenge.
      kAwaitResponse,  // Greeting sent; expecting dialer's response MAC.
      kFrames,         // Authenticated; length-prefixed frames.
    };
    Phase phase = Phase::kAwaitHello;
    std::string inbuf;             // Received, not yet parsed.
    std::string outbuf;            // Greeting bytes the socket would not take.
    std::string acceptor_challenge;
    uint64_t handshake_timer = 0;  // Drops the conn if auth stalls.
  };

  TcpNetwork(const Options& options, int listen_fd, uint16_t listen_port,
             std::unique_ptr<EventLoop> loop);

  // Loop-thread handlers.
  void HandleAccept(uint32_t events);
  void HandleConnIo(int fd, uint32_t events);
  /// Parses everything parseable in `conn->inbuf`; false = protocol
  /// violation or auth failure, drop the connection.
  bool AdvanceConn(InboundConn* conn);
  /// Tries to flush `conn->outbuf`; arms EPOLLOUT while bytes remain.
  bool FlushConn(InboundConn* conn);
  void DropConn(int fd);

  /// Enqueues an arrived frame into the hosted receiver's queue, or parks
  /// it until that receiver registers. A frame for a retired session or
  /// the reserved `kAllSessions` scope is dropped (and counted in
  /// `DroppedFrameCount`).
  void Deliver(Message message) EXCLUDES(registry_mutex_);

  /// Send-side route lookup: `from` must be hosted here; resolves the
  /// destination endpoint address ("host:port") and the session's channel
  /// counters. kFailedPrecondition on a retired session.
  Status ResolveRoute(const std::string& session, const std::string& from,
                      const std::string& to, std::string* dest_addr,
                      std::shared_ptr<ChannelState>* channel)
      EXCLUDES(registry_mutex_);
  /// Gets (dialing if needed, with backed-off retry on refusal) the
  /// pooled outbound connection to `dest_addr` and writes one framed
  /// message on it.
  Status WriteFrame(const std::string& dest_addr, const std::string& session,
                    const std::string& from, const std::string& to,
                    const std::string& topic, const std::string& wire)
      EXCLUDES(conn_mutex_);

  const std::chrono::milliseconds connect_timeout_;
  const std::string listen_host_;  // For self-dialing locally hosted parties.
  const std::string auth_key_;     // Connection-auth key (from auth_secret).

  int listen_fd_ = -1;
  uint16_t listen_port_ = 0;
  std::atomic<bool> shutting_down_{false};

  /// The reactor owning all inbound I/O. Declared after the fds it
  /// watches, destroyed (joined) in the destructor before they close.
  std::unique_ptr<EventLoop> loop_;
  /// Accepted connections by fd; loop-thread-only (no lock — the
  /// destructor touches it only after the loop has been joined).
  std::map<int, std::unique_ptr<InboundConn>> inbound_;

  // Registry state beyond the base's parties_/channels_, guarded by the
  // shared registry_mutex_.
  std::map<std::string, RemoteAddress> remotes_ GUARDED_BY(registry_mutex_);
  /// Arrivals for receivers with no endpoint yet, in arrival order;
  /// drained into the endpoint by RegisterParty.
  std::map<std::string, std::deque<Message>> unclaimed_
      GUARDED_BY(registry_mutex_);

  /// Guards the *structure* of the outbound pool; each Connection's
  /// writes are serialized by its own write_mutex, never under this one.
  mutable Mutex conn_mutex_;
  std::map<std::string, std::unique_ptr<Connection>> connections_
      GUARDED_BY(conn_mutex_);

  std::atomic<uint64_t> unclaimed_frames_{0};
  std::atomic<uint64_t> dropped_frames_{0};
};

}  // namespace ppc

#endif  // PPC_NET_TCP_NETWORK_H_
