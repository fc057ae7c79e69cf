#include "net/channel_transport.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "net/secure_channel.h"

namespace ppc {

ChannelTransport::ChannelTransport(TransportSecurity security)
    : security_(security), master_key_(SecureChannel::kMasterKey) {}

ChannelTransport::Endpoint* ChannelTransport::FindEndpoint(
    const std::string& name) const {
  MutexLock lock(registry_mutex_);
  return FindEndpointLocked(name);
}

ChannelTransport::Endpoint* ChannelTransport::FindEndpointLocked(
    const std::string& name) const {
  auto it = parties_.find(name);
  return it == parties_.end() ? nullptr : it->second.get();
}

namespace {

void Accumulate(ChannelStats* total, const ChannelStats& add) {
  total->messages += add.messages;
  total->payload_bytes += add.payload_bytes;
  total->wire_bytes += add.wire_bytes;
}

/// The contiguous range of `map`'s entries whose key starts with
/// `std::get<0>(first)` — one session's channels or queues — given the
/// smallest key of that session.
template <typename Map>
auto SessionRange(Map& map, const typename Map::key_type& first) {
  auto begin = map.lower_bound(first);
  auto end = begin;
  while (end != map.end() && std::get<0>(end->first) == std::get<0>(first)) {
    ++end;
  }
  return std::make_pair(begin, end);
}

}  // namespace

Status ChannelTransport::CheckLiveLocked(const std::string& session) const {
  PPC_RETURN_IF_ERROR(CheckRealSession(session));
  if (retired_.count(session) == 0) return Status::OK();
  return Status::FailedPrecondition(
      "session '" + session +
      "' is retired: its id cannot be reused (a restarted id would reuse "
      "(key, nonce) pairs)");
}

Result<std::shared_ptr<ChannelTransport::ChannelState>>
ChannelTransport::ChannelForLocked(const std::string& session,
                                   const std::string& from,
                                   const std::string& to) {
  PPC_RETURN_IF_ERROR(CheckLiveLocked(session));
  auto& slot = channels_[ChannelKey(session, from, to)];
  if (!slot) {
    slot = std::make_shared<ChannelState>();
    slot->name = session.empty() ? from + "->" + to
                                 : from + "->" + to + "#" + session;
    if (security_ == TransportSecurity::kAuthenticatedEncryption) {
      // All key derivation and key expansion for this directed channel
      // happens here, once; every later Seal/Open reuses the context. The
      // key binds the session id, so cross-session frames never verify.
      slot->crypto = std::make_unique<SecureChannel::Context>(
          SecureChannel::ChannelKey(master_key_, from, to, session));
    }
  }
  return slot;
}

Result<ChannelTransport::Endpoint*> ChannelTransport::ResolveReceive(
    const std::string& session, const std::string& to, const std::string& from,
    std::shared_ptr<ChannelState>* channel) {
  MutexLock lock(registry_mutex_);
  Endpoint* endpoint = FindEndpointLocked(to);
  if (endpoint == nullptr) {
    return Status::NotFound("unknown receiver '" + to + "'");
  }
  PPC_RETURN_IF_ERROR(CheckLiveLocked(session));
  if (channel != nullptr) {
    // Look up without creating: a Receive for a sender that never sends
    // must leave no channel state behind. The state is created lazily
    // (ChannelFor) only once a frame has actually arrived.
    auto it = channels_.find(ChannelKey(session, from, to));
    if (it != channels_.end()) *channel = it->second;
  }
  return endpoint;
}

Result<std::shared_ptr<ChannelTransport::ChannelState>>
ChannelTransport::ChannelFor(const std::string& session,
                             const std::string& from, const std::string& to) {
  MutexLock lock(registry_mutex_);
  return ChannelForLocked(session, from, to);
}

Result<std::string> ChannelTransport::PrepareFrame(
    const std::string& session, const std::string& from, const std::string& to,
    const std::string& topic, const std::string& payload,
    ChannelState* channel) {
  // Frame construction runs outside every lock; concurrent senders only
  // contend on the atomic nonce counter.
  std::string wire;
  if (security_ == TransportSecurity::kPlaintext) {
    wire = payload;
  } else {
    // Claim the next nonce, refusing once the space is spent: the counter
    // parks at the max value forever rather than wrapping to 0, because a
    // reused (key, nonce) pair breaks CTR mode outright.
    uint64_t nonce = channel->nonce_counter.load(std::memory_order_relaxed);
    do {
      if (nonce == std::numeric_limits<uint64_t>::max()) {
        return Status::ResourceExhausted(
            "channel " + channel->name +
            " has exhausted its nonce space (2^64-1 frames); no further "
            "frame can be sealed on it");
      }
    } while (!channel->nonce_counter.compare_exchange_weak(
        nonce, nonce + 1, std::memory_order_relaxed));
    PPC_ASSIGN_OR_RETURN(wire, channel->crypto->Seal(topic, nonce, payload));
  }

  channel->messages.fetch_add(1, std::memory_order_relaxed);
  channel->payload_bytes.fetch_add(payload.size(), std::memory_order_relaxed);
  channel->wire_bytes.fetch_add(wire.size(), std::memory_order_relaxed);

  // Snapshot the matching taps under the lock, invoke them outside it:
  // taps are user callbacks (observers, latency injectors) and must not
  // serialize concurrent senders on other channels or sessions.
  std::vector<Tap> matching;
  {
    MutexLock tap_lock(tap_mutex_);
    auto tap_it = taps_.find(std::make_pair(from, to));
    if (tap_it != taps_.end()) {
      for (const TapEntry& entry : tap_it->second) {
        if (entry.scope == session || entry.scope == kAllSessions) {
          matching.push_back(entry.tap);
        }
      }
    }
  }
  if (!matching.empty()) {
    WireFrame frame{from, to, topic, wire, session};
    for (const Tap& tap : matching) tap(frame);
  }
  return wire;
}

void ChannelTransport::EnqueueLocked(Endpoint* endpoint, Message message) {
  MutexLock lock(endpoint->mutex);
  std::unique_ptr<Queue>& queue =
      endpoint->queues[QueueKey(message.session, message.from)];
  if (!queue) queue = std::make_unique<Queue>();
  queue->frames.push_back(std::move(message));
  queue->arrival.NotifyAll();
}

Status ChannelTransport::DeliverLocal(Endpoint* endpoint, Message message) {
  MutexLock lock(registry_mutex_);
  PPC_RETURN_IF_ERROR(CheckLiveLocked(message.session));
  EnqueueLocked(endpoint, std::move(message));
  return Status::OK();
}

namespace {

/// Channel context appended to every blocking-receive failure so a stuck
/// session reads as "who was waiting on whom, for what" in the log.
std::string ReceiveContext(const std::string& session, const std::string& from,
                           const std::string& to, const std::string& topic) {
  std::string out = " (session '" + session + "', " + from + " -> " + to;
  if (!topic.empty()) out += ", topic '" + topic + "'";
  out += ")";
  return out;
}

}  // namespace

Result<Message> ChannelTransport::ReceiveOn(const std::string& session,
                                            const std::string& to,
                                            const std::string& from,
                                            const std::string& expected_topic,
                                            const CancelToken* cancel) {
  const bool secured =
      security() == TransportSecurity::kAuthenticatedEncryption;
  auto decorate = [&](const Status& status) {
    return Status(status.code(),
                  status.message() +
                      ReceiveContext(session, from, to, expected_topic));
  };
  // One registry lock resolves both the endpoint and the channel's
  // cached crypto state up front.
  std::shared_ptr<ChannelState> channel;
  auto resolved =
      ResolveReceive(session, to, from, secured ? &channel : nullptr);
  if (!resolved.ok()) return decorate(resolved.status());
  Endpoint* endpoint = *resolved;
  if (cancel != nullptr) {
    Status live = cancel->Check();
    if (!live.ok()) return decorate(live);
  }
  const std::chrono::milliseconds timeout = receive_timeout();
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  const QueueKey key(session, from);

  // Registered before the endpoint lock is taken, released after it is
  // dropped: `Cancel` runs the waker under the token's lock, and the
  // waker takes the endpoint lock.
  CancelToken::Waker waker(cancel, [endpoint, &key] {
    MutexLock lock(endpoint->mutex);
    auto it = endpoint->queues.find(key);
    if (it != endpoint->queues.end()) it->second->arrival.NotifyAll();
  });

  Message msg;
  {
    MutexLock lock(endpoint->mutex);
    auto it = endpoint->queues.find(key);
    if (it == endpoint->queues.end()) {
      if (timeout.count() <= 0) {
        return Status::NotFound("no pending message from '" + from +
                                "' to '" + to + "'");
      }
      it = endpoint->queues.emplace(key, std::make_unique<Queue>()).first;
    }
    Queue* queue = it->second.get();
    ++queue->waiters;  // Pins the queue (and `it`) while we wait.
    Status status;
    // A frame that is already queued wins over a concurrently tripped
    // deadline or cancellation.
    while (queue->frames.empty()) {
      if (queue->purged) {
        status = decorate(Status::FailedPrecondition(
            "session '" + session + "' was purged while a receive waited"));
        break;
      }
      if (timeout.count() <= 0) {
        status = Status::NotFound("no pending message from '" + from +
                                  "' to '" + to + "'");
        break;
      }
      if (cancel != nullptr) {
        Status live = cancel->Check();
        if (!live.ok()) {
          status = decorate(live);
          break;
        }
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        status = Status::Unavailable(
            "no message from '" + from + "' to '" + to + "' within " +
            std::to_string(timeout.count()) + " ms" +
            ReceiveContext(session, from, to, expected_topic) +
            ": peer unreachable or stalled");
        break;
      }
      // Sleep until the earlier of the transport and token deadlines; a
      // frame on this queue, a purge, or the token's waker ends it early.
      auto wake = deadline;
      if (cancel != nullptr && cancel->HasDeadline()) {
        wake = std::min(wake, cancel->deadline());
      }
      (void)queue->arrival.WaitUntil(endpoint->mutex, wake);
      receive_wakeups_.fetch_add(1, std::memory_order_relaxed);
    }
    --queue->waiters;
    if (status.ok()) {
      Message& front = queue->frames.front();
      if (!expected_topic.empty() && front.topic != expected_topic) {
        status = Status::ProtocolViolation(
            "expected topic '" + expected_topic + "' from '" + from +
            "' but next message has topic '" + front.topic + "'");
      } else {
        msg = std::move(front);
        queue->frames.pop_front();
      }
    }
    if (queue->purged && queue->waiters == 0) endpoint->queues.erase(it);
    if (!status.ok()) return status;
  }

  // Verification and decryption run outside the queue lock, against the
  // channel's cached context (and cached name — no per-frame string
  // building). Steady state resolves both with the endpoint above; only
  // the channel's first-ever frame pays the locked create-on-use lookup.
  if (secured) {
    if (channel == nullptr) {
      auto created = ChannelFor(session, from, to);
      if (!created.ok()) return decorate(created.status());
      channel = *std::move(created);
    }
    PPC_ASSIGN_OR_RETURN(
        msg.payload,
        channel->crypto->Open(msg.topic, msg.payload, channel->name));
  }
  return msg;
}

size_t ChannelTransport::PendingCountOn(const std::string& scope,
                                        const std::string& to) const {
  Endpoint* endpoint = FindEndpoint(to);
  if (endpoint == nullptr) return 0;
  MutexLock lock(endpoint->mutex);
  auto begin = endpoint->queues.begin();
  auto end = endpoint->queues.end();
  if (scope != kAllSessions) {
    std::tie(begin, end) =
        SessionRange(endpoint->queues, QueueKey(scope, std::string()));
  }
  size_t total = 0;
  for (auto it = begin; it != end; ++it) total += it->second->frames.size();
  return total;
}

namespace {

/// Party filter of the stats sums: the empty name (never a party's)
/// matches every party.
bool Matches(const std::string& party, const std::string& filter) {
  return filter.empty() || party == filter;
}

}  // namespace

ChannelStats ChannelTransport::SumLocked(const std::string& from,
                                         const std::string& to) const {
  ChannelStats total;
  for (const auto& [pair, stats] : retired_totals_) {
    if (Matches(pair.first, from) && Matches(pair.second, to)) {
      Accumulate(&total, stats);
    }
  }
  for (const auto& [key, state] : channels_) {
    if (Matches(std::get<1>(key), from) && Matches(std::get<2>(key), to)) {
      Accumulate(&total, state->Stats());
    }
  }
  return total;
}

ChannelStats ChannelTransport::SessionSumLocked(const std::string& session,
                                                const std::string& from,
                                                const std::string& to) const {
  ChannelStats total;
  auto retired = retired_.find(session);
  if (retired != retired_.end()) {
    for (const RetiredChannel& channel : retired->second) {
      if (Matches(channel.from, from) && Matches(channel.to, to)) {
        Accumulate(&total, channel.stats);
      }
    }
    return total;
  }
  auto [begin, end] = SessionRange(
      channels_, ChannelKey(session, std::string(), std::string()));
  for (auto it = begin; it != end; ++it) {
    if (Matches(std::get<1>(it->first), from) &&
        Matches(std::get<2>(it->first), to)) {
      Accumulate(&total, it->second->Stats());
    }
  }
  return total;
}

ChannelStats ChannelTransport::StatsOn(const std::string& scope,
                                       const std::string& from,
                                       const std::string& to) const {
  MutexLock lock(registry_mutex_);
  if (scope == kAllSessions) return SumLocked(from, to);
  if (!from.empty() && !to.empty()) {
    auto it = channels_.find(ChannelKey(scope, from, to));
    if (it != channels_.end()) return it->second->Stats();
  }
  return SessionSumLocked(scope, from, to);
}

void ChannelTransport::ResetStats() {
  MutexLock lock(registry_mutex_);
  for (auto& [key, state] : channels_) {
    state->messages.store(0, std::memory_order_relaxed);
    state->payload_bytes.store(0, std::memory_order_relaxed);
    state->wire_bytes.store(0, std::memory_order_relaxed);
    // nonce_counter deliberately survives: fresh nonces forever.
  }
  // Retired ids stay retired; only their counters go.
  retired_totals_.clear();
  for (auto& [session, channels] : retired_) {
    std::vector<RetiredChannel>().swap(channels);
  }
}

void ChannelTransport::AddTapOn(const std::string& scope,
                                const std::string& from, const std::string& to,
                                Tap tap) {
  MutexLock lock(tap_mutex_);
  taps_[std::make_pair(from, to)].push_back(TapEntry{scope, std::move(tap)});
}

Status ChannelTransport::SetNonceCounterForTesting(const std::string& session,
                                                   const std::string& from,
                                                   const std::string& to,
                                                   uint64_t value) {
  if (security_ != TransportSecurity::kAuthenticatedEncryption) {
    return Status::FailedPrecondition(
        "plaintext transports have no nonce counters");
  }
  PPC_ASSIGN_OR_RETURN(std::shared_ptr<ChannelState> channel,
                       ChannelFor(session, from, to));
  channel->nonce_counter.store(value, std::memory_order_relaxed);
  return Status::OK();
}

size_t ChannelTransport::LiveChannelCountForTesting() const {
  MutexLock lock(registry_mutex_);
  return channels_.size();
}

size_t ChannelTransport::QueueCountForTesting() const {
  MutexLock lock(registry_mutex_);
  size_t total = 0;
  for (const auto& [name, endpoint] : parties_) {
    MutexLock queue_lock(endpoint->mutex);
    total += endpoint->queues.size();
  }
  return total;
}

void ChannelTransport::PurgeSession(const std::string& session) {
  // One registry lock covers the whole purge: deliveries enqueue under it
  // too, so no frame can slip in behind the purge and re-create a queue.
  // Lock order registry -> endpoint, as on the delivery path.
  MutexLock lock(registry_mutex_);
  std::vector<RetiredChannel>& record = retired_[session];
  auto [begin, end] = SessionRange(
      channels_, ChannelKey(session, std::string(), std::string()));
  for (auto it = begin; it != end; ++it) {
    const ChannelStats stats = it->second->Stats();
    if (stats.messages == 0) continue;  // Receive side; sent nothing.
    const std::string& from = std::get<1>(it->first);
    const std::string& to = std::get<2>(it->first);
    record.push_back(RetiredChannel{from, to, stats});
    Accumulate(&retired_totals_[std::make_pair(from, to)], stats);
  }
  channels_.erase(begin, end);
  for (const auto& [name, endpoint] : parties_) {
    MutexLock queue_lock(endpoint->mutex);
    auto [first, last] =
        SessionRange(endpoint->queues, QueueKey(session, std::string()));
    for (auto it = first; it != last;) {
      Queue* queue = it->second.get();
      if (queue->waiters == 0) {
        it = endpoint->queues.erase(it);
        continue;
      }
      // Parked receives hold the queue: empty it and wake them; the last
      // one to leave erases it.
      queue->frames.clear();
      queue->purged = true;
      queue->arrival.NotifyAll();
      ++it;
    }
  }
}

}  // namespace ppc
