#ifndef PPC_NET_NETWORK_H_
#define PPC_NET_NETWORK_H_

#include <chrono>
#include <cstddef>
#include <functional>
#include <string>
#include <utility>

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

/// kInvalidArgument iff `session` is the reserved `kAllSessions` scope,
/// which names no real session: sends, injections, receives and session
/// starts refuse it, and TCP drops inbound frames that carry it.
Status CheckRealSession(const std::string& session);

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
///   * A send accounts one message and its payload/wire byte counts on the
///     sending side before it returns; a receive verifies and decrypts.
///   * With `TransportSecurity::kAuthenticatedEncryption` the on-wire frame
///     is nonce || AES-128-CTR ciphertext || truncated HMAC-SHA-256 MAC
///     under a per-directed-channel key (see `SecureChannel`), identical
///     across backends so captures and byte accounting are comparable.
///   * Registered eavesdropper taps observe exactly the on-wire bytes of
///     every frame crossing their channel, on the sending side.
///   * Delivery may be asynchronous (it is on TCP): the only guaranteed way
///     to observe a sent message is a receive with a nonzero timeout.
///
/// Session multiplexing: N concurrent logical clustering sessions share one
/// transport (and, on TCP, one authenticated physical connection per party
/// pair). Each directed channel is keyed per `(session, from, to)` — its
/// own FIFO stream, traffic counters, nonce counter, and (on secured
/// transports) its own derived `SecureChannel` keys, so a frame sealed on
/// one session can never verify on another.
///
/// The scope rule: every virtual call that touches sessions names its
/// scope explicitly, and the non-virtual wrappers below only fix that
/// argument.
///   * `SendOn`, `InjectFrameOn` and `ReceiveOn` act on one real session:
///     `kDefaultSession` (the empty id) or any other id. `kAllSessions` is
///     refused as kInvalidArgument.
///   * `StatsOn`, `PendingCountOn` and `AddTapOn` observe a scope: one
///     session, or `kAllSessions` for every session. In `StatsOn` an empty
///     `from`/`to` matches every party.
///   * The plain data-path wrappers (`Send`, `Receive`, `InjectFrame`) use
///     `kDefaultSession`; the plain observation wrappers (`StatsFor`,
///     `TotalSentBy`, `GrandTotal`, `PendingCount`, `AddTap`) use
///     `kAllSessions`.
/// A `SessionNetwork` view maps both `kDefaultSession` and `kAllSessions`
/// to its bound id, so the protocol stack runs unchanged per session.
///
/// All methods are thread-safe; the concurrent protocol engine drives
/// several party steps at once.
class Network {
 public:
  /// Callback invoked for every frame crossing a tapped channel.
  using Tap = std::function<void(const WireFrame&)>;

  virtual ~Network();

  // -- The virtual core -----------------------------------------------------

  /// Registers a party name hosted by this transport endpoint. Fails with
  /// kAlreadyExists on duplicates and kInvalidArgument on empty names.
  virtual Status RegisterParty(const std::string& name) = 0;

  /// True iff `name` is known to this transport (hosted here, or — for
  /// distributed backends — reachable at a known remote address).
  virtual bool HasParty(const std::string& name) const = 0;

  /// The transport security mode of this network.
  virtual TransportSecurity security() const = 0;

  /// How long a receive waits for a message on an empty channel. Zero
  /// means non-blocking; distributed backends need a nonzero timeout for
  /// any cross-process receive.
  virtual void set_receive_timeout(std::chrono::milliseconds timeout) = 0;
  virtual std::chrono::milliseconds receive_timeout() const = 0;

  /// Resets all traffic counters (queues and nonce counters are
  /// unaffected, so no (key, nonce) pair is ever reused).
  virtual void ResetStats() = 0;

  /// Retires a finished `session`: drops every queue, channel
  /// crypto/nonce state, and pending frame belonging to it, keeping only
  /// its final traffic counters (the stats calls keep reporting them).
  /// The id is closed for good — later sends on it fail with
  /// kFailedPrecondition — because a restarted session would reuse
  /// (key, nonce) pairs. `SessionRegistry` calls this for every session
  /// it finishes.
  virtual void PurgeSession(const std::string& session) = 0;

  /// Sends `payload` from `from` to `to` under `topic` on `session`.
  /// `from` must be hosted by this endpoint; unknown parties are
  /// kNotFound.
  virtual Status SendOn(const std::string& session, const std::string& from,
                        const std::string& to, const std::string& topic,
                        std::string payload) = 0;

  /// Fault-injection hook: delivers `wire_bytes` into `session`'s stream
  /// as if they had crossed the wire from `from` to `to` (no encryption,
  /// no accounting, no taps). Lets tests deliver tampered or replayed
  /// frames to exercise the receiver's integrity checks. Not used by the
  /// protocols themselves.
  virtual Status InjectFrameOn(const std::string& session,
                               const std::string& from, const std::string& to,
                               const std::string& topic,
                               std::string wire_bytes) = 0;

  /// The one receive: the oldest pending message of `session` addressed
  /// to `to` from `from`. If `expected_topic` is non-empty, a topic
  /// mismatch is a protocol violation (the message is left queued). With
  /// a nonzero `receive_timeout` an empty channel blocks until a message
  /// arrives, `cancel` trips, or the earlier of the timeout and the
  /// token's deadline passes. `cancel` may be null — a deliberately
  /// uncancellable wait says so at the call site. Errors:
  ///   * token cancelled        -> the token's sticky reason
  ///   * token deadline passed  -> kDeadlineExceeded
  ///   * transport timeout      -> kUnavailable ("peer unreachable")
  ///   * zero-timeout empty     -> kNotFound (a non-blocking probe)
  ///   * session purged         -> kFailedPrecondition
  virtual Result<Message> ReceiveOn(const std::string& session,
                                    const std::string& to,
                                    const std::string& from,
                                    const std::string& expected_topic,
                                    const CancelToken* cancel) = 0;

  /// Counters of the `from` -> `to` channels in `scope`, as observed by
  /// this endpoint (on distributed backends each endpoint accounts the
  /// channels its hosted parties send on). An empty `from`/`to` matches
  /// every party; retired sessions keep counting.
  virtual ChannelStats StatsOn(const std::string& scope,
                               const std::string& from,
                               const std::string& to) const = 0;

  /// Undelivered messages in `scope` addressed to the locally hosted
  /// party `to` (0 for parties not hosted here).
  virtual size_t PendingCountOn(const std::string& scope,
                                const std::string& to) const = 0;

  /// Installs an eavesdropper on the directed channel `from` -> `to` for
  /// the frames of `scope` (the frame's `session` field says which one it
  /// crossed on). Fires on the sending side for every subsequent frame,
  /// on the sender's thread and outside transport locks — concurrent
  /// senders may invoke the same tap concurrently, and a tap that blocks
  /// (e.g. a latency injector) delays only its own sender.
  virtual void AddTapOn(const std::string& scope, const std::string& from,
                        const std::string& to, Tap tap) = 0;

  // -- Wrappers: the default session ----------------------------------------

  Status Send(const std::string& from, const std::string& to,
              const std::string& topic, std::string payload) {
    return SendOn(kDefaultSession, from, to, topic, std::move(payload));
  }
  Result<Message> Receive(const std::string& to, const std::string& from,
                          const std::string& expected_topic,
                          const CancelToken* cancel) {
    return ReceiveOn(kDefaultSession, to, from, expected_topic, cancel);
  }
  Status InjectFrame(const std::string& from, const std::string& to,
                     const std::string& topic, std::string wire_bytes) {
    return InjectFrameOn(kDefaultSession, from, to, topic,
                         std::move(wire_bytes));
  }

  // -- Wrappers: every session ----------------------------------------------

  ChannelStats StatsFor(const std::string& from, const std::string& to) const {
    return StatsOn(kAllSessions, from, to);
  }
  /// Sum over the channels `party` sends on.
  ChannelStats TotalSentBy(const std::string& party) const {
    return StatsOn(kAllSessions, party, std::string());
  }
  /// Sum over every channel this endpoint accounts.
  ChannelStats GrandTotal() const {
    return StatsOn(kAllSessions, std::string(), std::string());
  }
  size_t PendingCount(const std::string& to) const {
    return PendingCountOn(kAllSessions, to);
  }
  void AddTap(const std::string& from, const std::string& to, Tap tap) {
    AddTapOn(kAllSessions, from, to, std::move(tap));
  }

  // -- Wrappers: one explicit scope -----------------------------------------

  ChannelStats TotalSentByOn(const std::string& scope,
                             const std::string& party) const {
    return StatsOn(scope, party, std::string());
  }
  ChannelStats GrandTotalOn(const std::string& scope) const {
    return StatsOn(scope, std::string(), std::string());
  }
};

}  // namespace ppc

#endif  // PPC_NET_NETWORK_H_
