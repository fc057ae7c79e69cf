#ifndef PPC_NET_NETWORK_H_
#define PPC_NET_NETWORK_H_

#include <chrono>
#include <cstddef>
#include <functional>
#include <string>

#include "common/cancellation.h"
#include "common/result.h"
#include "common/status.h"
#include "net/message.h"

namespace ppc {

/// Transport security of the links between parties.
enum class TransportSecurity {
  /// Frames carry the plaintext payload; an eavesdropper sees everything.
  /// This reproduces the *insecure channel* setting of the paper's Sec. 4.1
  /// inference discussion.
  kPlaintext,
  /// Frames are AES-128-CTR encrypted and HMAC-SHA-256 authenticated under
  /// a per-directed-channel key (modeling TLS between sites), which is the
  /// paper's "channels must be secured" requirement.
  kAuthenticatedEncryption,
};

/// Abstract point-to-point message transport between named parties.
///
/// This is the seam between the protocol stack and the deployment: the
/// paper's k data-holder sites plus the third party exchange point-to-point
/// messages, and everything in `src/core` (parties, session drivers) talks
/// only to this interface. Two backends ship with the library:
///
///   * `InMemoryNetwork` — all parties in one process; deterministic,
///     zero-latency, the simulator every experiment runs on.
///   * `TcpNetwork` — parties spread over OS processes/machines, frames
///     carried over TCP sockets.
///
/// Contract shared by every implementation:
///
///   * Delivery is FIFO per directed (sender, receiver) channel *within a
///     session*; frames of different sessions are independent streams.
///   * `Send` accounts one message and its payload/wire byte counts on the
///     sending side before it returns; `Receive` verifies and decrypts.
///   * With `TransportSecurity::kAuthenticatedEncryption` the on-wire frame
///     is nonce || AES-128-CTR ciphertext || truncated HMAC-SHA-256 MAC
///     under a per-directed-channel key (see `SecureChannel`), identical
///     across backends so captures and byte accounting are comparable.
///   * Registered eavesdropper taps observe exactly the on-wire bytes of
///     every frame crossing their channel, on the sending side.
///   * Delivery may be asynchronous (it is on TCP): the only guaranteed way
///     to observe a sent message is a `Receive` with a nonzero timeout.
///
/// Session multiplexing: N concurrent logical clustering sessions share one
/// transport (and, on TCP, one authenticated physical connection per party
/// pair). Each directed channel is keyed per `(session, from, to)` — its
/// own FIFO stream, traffic counters, nonce counter, and (on secured
/// transports) its own derived `SecureChannel` keys, so a frame sealed on
/// one session can never verify on another. The plain methods operate on
/// the default session (`kDefaultSession`, the empty id) and are exactly
/// the pre-multiplexing behavior; the `...On` variants take an explicit
/// session id. `SessionNetwork` adapts a session id back to the plain
/// interface so the protocol stack runs unchanged per session.
///
/// All methods are thread-safe; the concurrent protocol engine drives
/// several party steps at once.
class Network {
 public:
  /// Callback invoked for every frame crossing a tapped channel. Taps run
  /// serialized under one lock, so callbacks need no synchronization of
  /// their own.
  using Tap = std::function<void(const WireFrame&)>;

  virtual ~Network();

  /// Registers a party name hosted by this transport endpoint. Fails with
  /// kAlreadyExists on duplicates and kInvalidArgument on empty names.
  virtual Status RegisterParty(const std::string& name) = 0;

  /// True iff `name` is known to this transport (hosted here, or — for
  /// distributed backends — reachable at a known remote address).
  virtual bool HasParty(const std::string& name) const = 0;

  /// Sends `payload` from `from` to `to` under `topic`. `from` must be
  /// hosted by this endpoint; unknown parties are kNotFound.
  virtual Status Send(const std::string& from, const std::string& to,
                      const std::string& topic, std::string payload) = 0;

  /// Receives the oldest pending message addressed to `to` from `from`.
  /// If `expected_topic` is non-empty, a topic mismatch is a protocol
  /// violation (the message is left queued). With a nonzero
  /// `receive_timeout`, an empty channel blocks until a message arrives or
  /// the timeout elapses (then kNotFound); with a zero timeout an empty
  /// channel is kNotFound immediately.
  virtual Result<Message> Receive(const std::string& to,
                                  const std::string& from,
                                  const std::string& expected_topic = "") = 0;

  /// How long `Receive` waits for a message on an empty channel. Zero
  /// means non-blocking; distributed backends need a nonzero timeout for
  /// any cross-process receive.
  virtual void set_receive_timeout(std::chrono::milliseconds timeout) = 0;
  virtual std::chrono::milliseconds receive_timeout() const = 0;

  /// Number of undelivered messages addressed to the locally hosted party
  /// `to` (0 for parties not hosted here).
  virtual size_t PendingCount(const std::string& to) const = 0;

  /// Traffic counters for the directed channel `from` -> `to`, as observed
  /// by this endpoint (on distributed backends each endpoint accounts the
  /// channels its hosted parties send on).
  virtual ChannelStats StatsFor(const std::string& from,
                                const std::string& to) const = 0;

  /// Sum of counters over all channels where `party` is the sender.
  virtual ChannelStats TotalSentBy(const std::string& party) const = 0;

  /// Sum over every channel this endpoint accounts.
  virtual ChannelStats GrandTotal() const = 0;

  /// Resets all traffic counters (queues and nonce counters are
  /// unaffected, so no (key, nonce) pair is ever reused).
  virtual void ResetStats() = 0;

  /// Installs an eavesdropper on the directed channel `from` -> `to`.
  /// Fires on the sending side for every subsequent frame, on the
  /// sender's thread and outside transport locks — concurrent senders
  /// may invoke the same tap concurrently, and a tap that blocks (e.g. a
  /// latency injector) delays only its own sender.
  virtual void AddTap(const std::string& from, const std::string& to,
                      Tap tap) = 0;

  /// Fault-injection hook: delivers `wire_bytes` as if they had crossed
  /// the wire from `from` to `to` (no encryption, no accounting, no taps).
  /// Lets tests deliver tampered or replayed frames to exercise the
  /// receiver's integrity checks. Not used by the protocols themselves.
  virtual Status InjectFrame(const std::string& from, const std::string& to,
                             const std::string& topic,
                             std::string wire_bytes) = 0;

  /// The transport security mode of this network.
  virtual TransportSecurity security() const = 0;

  // -- Session-scoped variants ----------------------------------------------
  //
  // Distinct names (not overloads) so implementations overriding one set
  // never hide the other. The plain methods above are equivalent to these
  // with `session == kDefaultSession`.

  /// `Send` on an explicit session.
  virtual Status SendOn(const std::string& session, const std::string& from,
                        const std::string& to, const std::string& topic,
                        std::string payload) = 0;

  /// `Receive` on an explicit session; only frames sent on that session
  /// are visible.
  virtual Result<Message> ReceiveOn(const std::string& session,
                                    const std::string& to,
                                    const std::string& from,
                                    const std::string& expected_topic = "") = 0;

  /// Undelivered messages addressed to `to` on `session` alone (the plain
  /// `PendingCount` sums every session).
  virtual size_t PendingCountOn(const std::string& session,
                                const std::string& to) const = 0;

  /// Counters of the `(session, from, to)` channel alone (the plain
  /// `StatsFor` sums the `from` -> `to` channels of every session).
  virtual ChannelStats StatsOn(const std::string& session,
                               const std::string& from,
                               const std::string& to) const = 0;

  /// `TotalSentBy`, restricted to channels of `session`.
  virtual ChannelStats TotalSentByOn(const std::string& session,
                                     const std::string& party) const = 0;

  /// `GrandTotal`, restricted to channels of `session`.
  virtual ChannelStats GrandTotalOn(const std::string& session) const = 0;

  /// Installs a tap that fires only for frames of `session` (the plain
  /// `AddTap` observes the channel across all sessions; the frame's
  /// `session` field says which one it crossed on).
  virtual void AddTapOn(const std::string& session, const std::string& from,
                        const std::string& to, Tap tap) = 0;

  /// `InjectFrame` into an explicit session's stream.
  virtual Status InjectFrameOn(const std::string& session,
                               const std::string& from, const std::string& to,
                               const std::string& topic,
                               std::string wire_bytes) = 0;

  // -- Cancellation-aware variants ------------------------------------------
  //
  // Blocking receives that consult a `CancelToken` while waiting, so a
  // cancelled or deadline-expired session unblocks at once instead of
  // sleeping out the full transport timeout. `cancel` may be null (then
  // these are exactly `Receive`/`ReceiveOn`). Non-pure with forwarding
  // defaults so transport implementations stay source-compatible;
  // `ChannelTransport` overrides them with waits the token can wake.
  //
  // Error taxonomy every implementation must follow:
  //   * token cancelled        -> the token's sticky reason
  //   * token deadline passed  -> kDeadlineExceeded
  //   * transport timeout      -> kUnavailable ("peer unreachable")
  //   * zero-timeout empty     -> kNotFound (non-blocking probe, as ever)
  //   * session purged         -> kFailedPrecondition

  /// `Receive` that honours `cancel` while blocked.
  virtual Result<Message> ReceiveCancellable(const std::string& to,
                                             const std::string& from,
                                             const std::string& expected_topic,
                                             const CancelToken* cancel);

  /// `ReceiveOn` that honours `cancel` while blocked.
  virtual Result<Message> ReceiveOnCancellable(
      const std::string& session, const std::string& to,
      const std::string& from, const std::string& expected_topic,
      const CancelToken* cancel);

  /// Retires a finished `session`: drops every queue, channel
  /// crypto/nonce state, and pending frame belonging to it, keeping only
  /// its final traffic counters (the stats calls keep reporting them).
  /// The id is closed for good — later sends on it fail with
  /// kFailedPrecondition — because a restarted session would reuse
  /// (key, nonce) pairs. `SessionRegistry` calls this for every session
  /// it finishes. Default: no-op (backends without per-session state have
  /// nothing to free).
  virtual void PurgeSession(const std::string& session);
};

}  // namespace ppc

#endif  // PPC_NET_NETWORK_H_
