#include "net/faulty_network.h"

#include <chrono>
#include <thread>

namespace ppc {
namespace {

/// splitmix64 — the canonical 64-bit mixer; tiny, fast, and good enough
/// to schedule faults deterministically.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// FNV-1a over a string, for folding channel identity into the seed.
uint64_t HashString(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Per-channel stream seed: every (seed, session, from, to) tuple gets
/// its own reproducible draw sequence, independent of thread timing.
uint64_t ChannelSeed(uint64_t seed, const std::string& session,
                     const std::string& from, const std::string& to) {
  uint64_t h = 0xcbf29ce484222325ULL ^ seed;
  h = HashString(h, session);
  h = HashString(h, "\x1f" + from);
  h = HashString(h, "\x1f" + to);
  // A zero state would read as "uninitialized"; nudge it.
  return h == 0 ? 0x9e3779b97f4a7c15ULL : h;
}

double NextUnit(uint64_t* state) {
  // 53 random bits -> [0, 1).
  return static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
}

}  // namespace

Result<FaultProfile> FaultProfileFromName(const std::string& name) {
  if (name == "none") return FaultProfile{};
  if (name == "lossy-wan") return FaultProfile::LossyWan();
  if (name == "crashy-peer") return FaultProfile::CrashyPeer();
  return Status::InvalidArgument("unknown fault profile '" + name +
                                 "' (expected none|lossy-wan|crashy-peer)");
}

FaultyNetwork::FaultyNetwork(Network* base, FaultProfile profile,
                             uint64_t seed)
    : base_(base), profile_(profile), seed_(seed) {}

FaultyNetwork::FaultCounts FaultyNetwork::fault_counts() const {
  MutexLock lock(chaos_mutex_);
  return counts_;
}

FaultyNetwork::Decision FaultyNetwork::Decide(const std::string& session,
                                              const std::string& from,
                                              const std::string& to,
                                              const std::string& topic,
                                              const std::string& payload) {
  (void)topic;
  MutexLock lock(chaos_mutex_);
  ChannelChaos& chaos = channels_[ChannelKey(session, from, to)];
  if (chaos.rng_state == 0) {
    chaos.rng_state = ChannelSeed(seed_, session, from, to);
  }
  Decision decision;
  // Duplication replays the exact sealed bytes, which only a tap can
  // observe; install one per channel on its first frame.
  if (chaos.frames_sent == 0 && profile_.duplicate_probability > 0) {
    decision.register_tap = true;
  }
  // A frame held for reordering is released right after the current one,
  // whatever the current frame's own fate.
  if (chaos.holding) {
    decision.release_held = true;
    decision.held_topic = std::move(chaos.held_topic);
    decision.held_payload = std::move(chaos.held_payload);
    chaos.holding = false;
  }
  chaos.frames_sent++;
  if (profile_.disconnect_after_frames > 0 &&
      chaos.frames_sent > profile_.disconnect_after_frames) {
    decision.kind = FaultKind::kDisconnect;
    counts_.disconnected++;
    return decision;
  }
  // One draw decides the fault class (cumulative thresholds in severity
  // order), keeping every channel's stream alignment independent of
  // which probabilities are zero.
  const double u = NextUnit(&chaos.rng_state);
  double threshold = profile_.drop_probability;
  if (u < threshold) {
    decision.kind = FaultKind::kDrop;
    counts_.dropped++;
    return decision;
  }
  threshold += profile_.corrupt_probability;
  if (u < threshold) {
    decision.kind = FaultKind::kCorrupt;
    // Plausibly-sized garbage: nonce+mac-sized prefix plus a payload-ish
    // tail, all from the channel stream so runs replay exactly.
    const size_t size = 24 + (SplitMix64(&chaos.rng_state) % 64);
    decision.corrupt_bytes.reserve(size);
    while (decision.corrupt_bytes.size() < size) {
      uint64_t word = SplitMix64(&chaos.rng_state);
      for (int i = 0; i < 8 && decision.corrupt_bytes.size() < size; ++i) {
        decision.corrupt_bytes.push_back(static_cast<char>(word & 0xff));
        word >>= 8;
      }
    }
    counts_.corrupted++;
    return decision;
  }
  threshold += profile_.reorder_probability;
  if (u < threshold) {
    if (decision.release_held) {
      // One hold slot per channel: a round that releases a held frame
      // cannot hold another. The draw stays consumed (stream alignment)
      // and the current frame passes through untouched — falling into
      // the next bands here would mislabel the draw as their fault.
      return decision;
    }
    // Hold this frame until the channel's next send.
    decision.kind = FaultKind::kReorder;
    chaos.holding = true;
    chaos.held_topic = topic;
    chaos.held_payload = payload;
    counts_.reordered++;
    return decision;
  }
  threshold += profile_.duplicate_probability;
  if (u < threshold) {
    decision.kind = FaultKind::kDuplicate;
    counts_.duplicated++;
    return decision;
  }
  threshold += profile_.delay_probability;
  if (u < threshold && profile_.max_delay_ms > 0) {
    decision.kind = FaultKind::kDelay;
    decision.delay_ms = 1 + SplitMix64(&chaos.rng_state) % profile_.max_delay_ms;
    counts_.delayed++;
    return decision;
  }
  return decision;
}

Status FaultyNetwork::SendOn(const std::string& session,
                             const std::string& from, const std::string& to,
                             const std::string& topic, std::string payload) {
  PPC_RETURN_IF_ERROR(CheckRealSession(session));
  Decision decision = Decide(session, from, to, topic, payload);
  if (decision.register_tap) {
    // Record the sealed bytes of every real frame this channel sends, so
    // a later duplicate can replay them verbatim. The tap fires on this
    // sender's thread, outside transport locks.
    const ChannelKey key(session, from, to);
    base_->AddTapOn(session, from, to, [this, key](const WireFrame& frame) {
      MutexLock lock(chaos_mutex_);
      channels_[key].last_wire = frame.wire_bytes;
    });
  }
  Status result = Status::OK();
  switch (decision.kind) {
    case FaultKind::kDisconnect:
      // Dead peer: fail fast, deliver nothing (a held frame dies too).
      return Status::Unavailable(
          "chaos: channel " + from + " -> " + to + " (session '" + session +
          "') disconnected after " +
          std::to_string(profile_.disconnect_after_frames) + " frames");
    case FaultKind::kDrop:
      // Swallow silently: the receiver discovers the hole by timeout.
      break;
    case FaultKind::kCorrupt:
      // Garbage instead of the sealed frame: the receiver's MAC check
      // turns this into a typed integrity failure.
      result = base_->InjectFrameOn(session, from, to, topic,
                                    std::move(decision.corrupt_bytes));
      break;
    case FaultKind::kReorder:
      // Held: nothing crosses the wire until the channel's next frame.
      break;
    case FaultKind::kDelay:
      std::this_thread::sleep_for(
          std::chrono::milliseconds(decision.delay_ms));
      result = base_->SendOn(session, from, to, topic, std::move(payload));
      break;
    case FaultKind::kDuplicate: {
      result = base_->SendOn(session, from, to, topic, std::move(payload));
      if (result.ok()) {
        // Replay the exact sealed bytes the capture tap recorded.
        std::string wire;
        {
          MutexLock lock(chaos_mutex_);
          wire = channels_[ChannelKey(session, from, to)].last_wire;
        }
        if (!wire.empty()) {
          PPC_RETURN_IF_ERROR(
              base_->InjectFrameOn(session, from, to, topic, std::move(wire)));
        }
      }
      break;
    }
    case FaultKind::kNone:
      result = base_->SendOn(session, from, to, topic, std::move(payload));
      break;
  }
  if (!result.ok()) return result;
  if (decision.release_held) {
    return base_->SendOn(session, from, to, decision.held_topic,
                         std::move(decision.held_payload));
  }
  return Status::OK();
}

void FaultyNetwork::PurgeSession(const std::string& session) {
  {
    MutexLock lock(chaos_mutex_);
    for (auto it = channels_.begin(); it != channels_.end();) {
      if (std::get<0>(it->first) == session) {
        it = channels_.erase(it);
      } else {
        ++it;
      }
    }
  }
  base_->PurgeSession(session);
}

}  // namespace ppc
