#ifndef PPC_NET_CHANNEL_TRANSPORT_H_
#define PPC_NET_CHANNEL_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/message.h"
#include "net/network.h"
#include "net/secure_channel.h"

namespace ppc {

/// Shared machinery for `Network` backends that deliver frames into
/// per-receiver FIFO queues with per-directed-channel accounting — which
/// is every backend in the tree. One implementation of the
/// contract-critical paths (session demultiplexing, blocking `Receive`
/// with timeout and strict topic checking, pending counts, stats
/// aggregation and reset, tap fan-out, `SecureChannel` seal/open) keeps
/// the in-memory simulator and the TCP transport behaviorally identical
/// by construction; the transport-conformance suite then only has to
/// catch divergence in what subclasses add: party registration and frame
/// routing (`RegisterParty`, `SendOn`, `InjectFrameOn`, `HasParty`).
///
/// Sessions: every directed channel is keyed `(session, from, to)` — its
/// own FIFO queue, counters, nonce counter, and crypto context (keys
/// derived per session, see `SecureChannel::ChannelKey`). The default
/// session is the pre-multiplexing transport, bit-for-bit.
///
/// Session lifetime: `PurgeSession` retires a finished session. Its
/// queues, channel states and crypto contexts are freed; what stays is
/// one compact record of its final send counters, so `StatsOn`,
/// `GrandTotal` and friends stay exact. A retired id is closed for good:
/// sends and injections on it fail with kFailedPrecondition, and frames
/// that still arrive for it are dropped — reopening it would restart its
/// nonce counters and reuse (key, nonce) pairs.
class ChannelTransport : public Network {
 public:
  // -- The shared half of the Network contract ------------------------------

  Status Send(const std::string& from, const std::string& to,
              const std::string& topic, std::string payload) override {
    return SendOn(kDefaultSession, from, to, topic, std::move(payload));
  }
  Result<Message> Receive(const std::string& to, const std::string& from,
                          const std::string& expected_topic = "") override {
    return ReceiveOn(kDefaultSession, to, from, expected_topic);
  }
  Status InjectFrame(const std::string& from, const std::string& to,
                     const std::string& topic,
                     std::string wire_bytes) override {
    return InjectFrameOn(kDefaultSession, from, to, topic,
                         std::move(wire_bytes));
  }

  Result<Message> ReceiveOn(const std::string& session, const std::string& to,
                            const std::string& from,
                            const std::string& expected_topic = "") override
      EXCLUDES(registry_mutex_);

  Result<Message> ReceiveCancellable(const std::string& to,
                                     const std::string& from,
                                     const std::string& expected_topic,
                                     const CancelToken* cancel) override {
    return ReceiveOnCancellable(kDefaultSession, to, from, expected_topic,
                                cancel);
  }

  /// The real blocking receive of every queue-based backend. It parks on
  /// its own `(session, from)` queue, so only a frame for that queue, a
  /// purge of the session, `cancel` tripping, or the earlier of the
  /// transport timeout and the token's deadline wakes it. An exhausted
  /// transport timeout is `kUnavailable` with the session, channel, and
  /// topic in the message; a token deadline/cancellation keeps the
  /// token's own code (`kDeadlineExceeded` or the cancel reason),
  /// likewise decorated; a retired session is kFailedPrecondition.
  Result<Message> ReceiveOnCancellable(const std::string& session,
                                       const std::string& to,
                                       const std::string& from,
                                       const std::string& expected_topic,
                                       const CancelToken* cancel) override
      EXCLUDES(registry_mutex_);

  /// Retires `session`: frees its directed channels (nonce counters,
  /// crypto contexts) and its queued undelivered frames at every
  /// endpoint, keeping only its final send counters. A receive parked on
  /// the session wakes with kFailedPrecondition; its queue goes when the
  /// last such waiter leaves. Idempotent. Purging while the session still
  /// sends loses the counts of frames prepared after the purge.
  void PurgeSession(const std::string& session) override
      EXCLUDES(registry_mutex_);

  void set_receive_timeout(std::chrono::milliseconds timeout) override {
    receive_timeout_.store(timeout.count(), std::memory_order_relaxed);
  }
  std::chrono::milliseconds receive_timeout() const override {
    return std::chrono::milliseconds(
        receive_timeout_.load(std::memory_order_relaxed));
  }

  size_t PendingCount(const std::string& to) const override
      EXCLUDES(registry_mutex_);
  size_t PendingCountOn(const std::string& session,
                        const std::string& to) const override
      EXCLUDES(registry_mutex_);
  ChannelStats StatsFor(const std::string& from,
                        const std::string& to) const override
      EXCLUDES(registry_mutex_);
  ChannelStats StatsOn(const std::string& session, const std::string& from,
                       const std::string& to) const override
      EXCLUDES(registry_mutex_);
  ChannelStats TotalSentBy(const std::string& party) const override
      EXCLUDES(registry_mutex_);
  ChannelStats TotalSentByOn(const std::string& session,
                             const std::string& party) const override
      EXCLUDES(registry_mutex_);
  ChannelStats GrandTotal() const override EXCLUDES(registry_mutex_);
  ChannelStats GrandTotalOn(const std::string& session) const override
      EXCLUDES(registry_mutex_);
  void ResetStats() override EXCLUDES(registry_mutex_);
  void AddTap(const std::string& from, const std::string& to, Tap tap) override
      EXCLUDES(tap_mutex_);
  void AddTapOn(const std::string& session, const std::string& from,
                const std::string& to, Tap tap) override EXCLUDES(tap_mutex_);
  TransportSecurity security() const override { return security_; }

  /// Test hook for the nonce-exhaustion contract: pins the nonce counter
  /// of the `(session, from, to)` channel (created on first use) so a
  /// test can reach the end of the nonce space without sending 2^64
  /// frames. kFailedPrecondition on a plaintext transport, which has no
  /// nonces.
  Status SetNonceCounterForTesting(const std::string& session,
                                   const std::string& from,
                                   const std::string& to, uint64_t value)
      EXCLUDES(registry_mutex_);

  /// What the transport still holds, for the bounded-state tests: live
  /// directed channels, and `(session, from)` queues summed over every
  /// endpoint.
  size_t LiveChannelCountForTesting() const EXCLUDES(registry_mutex_);
  size_t QueueCountForTesting() const EXCLUDES(registry_mutex_);

  /// How many times a parked receive has woken, for any reason. Lets a
  /// test prove that a frame wakes no receiver parked on another queue.
  uint64_t ReceiveWakeupsForTesting() const {
    return receive_wakeups_.load(std::memory_order_relaxed);
  }

 protected:
  explicit ChannelTransport(TransportSecurity security);

  /// One `(session, sender)` stream at a receiver, with the receives
  /// parked on it. Created by the first frame or parked receive, erased
  /// when its session is purged (by the last parked receive, if the purge
  /// found any), so it is allocated once per session, not per frame.
  /// Every field is guarded by the owning `Endpoint::mutex` (the
  /// annotation cannot name it from here).
  struct Queue {
    std::deque<Message> frames;
    /// Wakes only the receives parked on this queue.
    CondVar arrival;
    /// Parked receives; a queue with waiters is never erased.
    int waiters = 0;
    /// Set by `PurgeSession` when it finds waiters: they leave with
    /// kFailedPrecondition, and the last one erases the queue.
    bool purged = false;
  };

  /// (session, sender) — the identity of one queue at a receiver.
  using QueueKey = std::pair<std::string, std::string>;

  /// One receiver: its queues, guarded by one mutex.
  struct Endpoint {
    mutable Mutex mutex;
    std::map<QueueKey, std::unique_ptr<Queue>> queues GUARDED_BY(mutex);
  };

  /// Per-directed-channel counters. Plain atomics: senders on the same
  /// channel bump them without taking any lock. The nonce counter survives
  /// ResetStats() so no (key, nonce) pair is ever reused. Shared-owned, so
  /// a purge never frees a state a concurrent send or receive still uses.
  struct ChannelState {
    std::atomic<uint64_t> messages{0};
    std::atomic<uint64_t> payload_bytes{0};
    std::atomic<uint64_t> wire_bytes{0};
    std::atomic<uint64_t> nonce_counter{0};
    /// Cached seal/open context (derived subkeys, AES key schedule, HMAC
    /// midstates), created with the channel on an authenticated-encryption
    /// transport; null on plaintext transports. Immutable once built, so
    /// concurrent Seal/Open need no lock.
    std::unique_ptr<SecureChannel::Context> crypto;
    /// "from->to" (default session) or "from->to#session", cached so
    /// per-frame error decoration costs nothing.
    std::string name;

    /// The traffic counters, read as one (relaxed) snapshot.
    ChannelStats Stats() const {
      return ChannelStats{messages.load(std::memory_order_relaxed),
                          payload_bytes.load(std::memory_order_relaxed),
                          wire_bytes.load(std::memory_order_relaxed)};
    }
  };

  /// (session, from, to) — the identity of one directed channel.
  using ChannelKey = std::tuple<std::string, std::string, std::string>;

  /// Registry lookup (takes registry_mutex_): endpoint for `name`, or
  /// nullptr. Endpoints are heap-allocated and never destroyed while the
  /// transport lives, so returned pointers stay valid after the lock is
  /// released.
  Endpoint* FindEndpoint(const std::string& name) const
      EXCLUDES(registry_mutex_);

  /// As `FindEndpoint`, requiring registry_mutex_ held — the one lookup
  /// both it and `ResolveReceive` share.
  Endpoint* FindEndpointLocked(const std::string& name) const
      REQUIRES(registry_mutex_);

  /// kFailedPrecondition iff `session` has been retired by `PurgeSession`.
  Status CheckLiveLocked(const std::string& session) const
      REQUIRES(registry_mutex_);

  /// The channel state for `from` -> `to` on `session`, created on first
  /// use (including its crypto context, so the key derivation cost is
  /// paid exactly once per directed channel). kFailedPrecondition on a
  /// retired session, which must never get a fresh nonce counter.
  Result<std::shared_ptr<ChannelState>> ChannelForLocked(
      const std::string& session, const std::string& from,
      const std::string& to) REQUIRES(registry_mutex_);

  /// One registry-locked lookup for the whole receive path: the endpoint
  /// for `to` and, when `channel` is non-null, the session's `from` ->
  /// `to` channel state if that channel already exists (never created
  /// here — a fruitless Receive must leave no state behind). kNotFound for
  /// an unregistered receiver, kFailedPrecondition for a retired session.
  Result<Endpoint*> ResolveReceive(const std::string& session,
                                   const std::string& to,
                                   const std::string& from,
                                   std::shared_ptr<ChannelState>* channel)
      EXCLUDES(registry_mutex_);

  /// Registry-locked create-on-use lookup of the session's `from` -> `to`
  /// channel — the receive-side counterpart of the state `PrepareFrame`
  /// gets handed; called once per channel, for the first frame that
  /// actually arrives.
  Result<std::shared_ptr<ChannelState>> ChannelFor(const std::string& session,
                                                   const std::string& from,
                                                   const std::string& to)
      EXCLUDES(registry_mutex_);

  /// Send-side frame preparation, identical across backends: seals the
  /// payload under the directed channel's key (pass-through on a
  /// plaintext transport), bumps the channel's traffic counters, and
  /// fires taps with exactly the on-wire bytes. Refuses with
  /// kResourceExhausted once the channel's nonce space is spent (2^64-1
  /// frames) — a nonce must never be reused. Runs outside every lock
  /// except the tap serialization.
  Result<std::string> PrepareFrame(const std::string& session,
                                   const std::string& from,
                                   const std::string& to,
                                   const std::string& topic,
                                   const std::string& payload,
                                   ChannelState* channel)
      EXCLUDES(tap_mutex_);

  /// Enqueues `message` at `endpoint` under its (session, sender) queue
  /// and wakes the receives parked on that queue alone. The caller holds
  /// the registry lock and has checked the session is live, so a purge
  /// can never interleave and leave a queue behind for a retired session.
  void EnqueueLocked(Endpoint* endpoint, Message message)
      REQUIRES(registry_mutex_);

  /// `EnqueueLocked` for a sender in this process: takes the registry
  /// lock, and refuses with kFailedPrecondition if the session was
  /// retired since its route was resolved.
  Status DeliverLocal(Endpoint* endpoint, Message message)
      EXCLUDES(registry_mutex_);

  /// Guards the *structure* of parties_ / channels_ (and any registry
  /// state a subclass keeps alongside them, e.g. remote addresses).
  mutable Mutex registry_mutex_;
  std::map<std::string, std::unique_ptr<Endpoint>> parties_
      GUARDED_BY(registry_mutex_);
  /// Live channels. Ordered by session first, so one session's channels
  /// are one contiguous range.
  std::map<ChannelKey, std::shared_ptr<ChannelState>> channels_
      GUARDED_BY(registry_mutex_);

 private:
  /// One registered eavesdropper: fires for every frame of its channel,
  /// or only for one session's frames when filtered.
  struct TapEntry {
    bool filtered = false;
    std::string session;
    Tap tap;
  };

  void AddTapEntry(const std::string& from, const std::string& to,
                   TapEntry entry) EXCLUDES(tap_mutex_);

  /// One retired channel's final counters.
  struct RetiredChannel {
    std::string from;
    std::string to;
    ChannelStats stats;
  };

  /// Counters summed over every channel, live and retired, sent by
  /// `from` to `to`; an empty name matches every party.
  ChannelStats SumLocked(const std::string& from, const std::string& to) const
      REQUIRES(registry_mutex_);
  /// Counters summed over `session`'s channels sent by `from` (every
  /// sender when empty), from its live range or its retired record.
  ChannelStats SessionSumLocked(const std::string& session,
                                const std::string& from) const
      REQUIRES(registry_mutex_);

  /// Retired sessions: every purged id, with the final counters of the
  /// channels it sent on (channels that never sent are not kept).
  std::unordered_map<std::string, std::vector<RetiredChannel>> retired_
      GUARDED_BY(registry_mutex_);
  /// The same counters summed per `(from, to)`: the transport-wide sums
  /// read these plus the live channels, never the retired records.
  std::map<std::pair<std::string, std::string>, ChannelStats> retired_totals_
      GUARDED_BY(registry_mutex_);

  TransportSecurity security_;
  std::string master_key_;  // Root of per-channel transport keys.

  /// Guards tap registration (tap invocation snapshots under the lock
  /// and fires outside it).
  mutable Mutex tap_mutex_;
  std::map<std::pair<std::string, std::string>, std::vector<TapEntry>> taps_
      GUARDED_BY(tap_mutex_);

  std::atomic<int64_t> receive_timeout_{0};  // Milliseconds.
  std::atomic<uint64_t> receive_wakeups_{0};
};

}  // namespace ppc

#endif  // PPC_NET_CHANNEL_TRANSPORT_H_
