#include "core/session_registry.h"

#include <algorithm>
#include <utility>

namespace ppc {

Status SessionRegistry::StartSession(const std::string& id, SessionBody body) {
  if (id.empty()) {
    return Status::InvalidArgument(
        "session id must be non-empty (the empty id is the transport's "
        "default session)");
  }
  MutexLock lock(mutex_);
  if (live_.count(id) != 0 || retired_.count(id) != 0) {
    return Status::AlreadyExists("session '" + id + "' already started");
  }
  auto entry = std::make_shared<Entry>(transport_, id);
  Entry* raw = entry.get();
  live_.emplace(id, std::move(entry));
  // Started under `mutex_`, which the worker's Retire takes: the worker
  // cannot move its own handle out before it is assigned here.
  raw->worker = std::thread([this, id, raw, body = std::move(body)] {
    Status result = body(&raw->view, &raw->token);
    // Success or failure, the session is over: free its queues, channel
    // counters, nonce counters and crypto contexts. The transport keeps
    // the id retired, so it can never restart and reuse a (key, nonce)
    // pair.
    transport_->PurgeSession(id);
    Retire(id, std::move(result));
  });
  return Status::OK();
}

void SessionRegistry::Retire(const std::string& id, Status result) {
  std::thread previous;
  {
    MutexLock lock(mutex_);
    retired_.emplace(id, std::move(result));
    auto it = live_.find(id);
    std::thread self = std::move(it->second->worker);
    it->second->done.NotifyAll();
    live_.erase(it);
    previous = std::exchange(unjoined_, std::move(self));
  }
  // `previous` has retired too, so this join waits at most for its last
  // few instructions (and, transitively, for the join it is doing).
  if (previous.joinable()) previous.join();
}

Status SessionRegistry::CancelSession(const std::string& id, Status reason) {
  std::shared_ptr<Entry> entry;
  {
    MutexLock lock(mutex_);
    auto it = live_.find(id);
    if (it == live_.end()) {
      if (retired_.count(id) != 0) return Status::OK();
      return Status::NotFound("session '" + id + "' was never started");
    }
    entry = it->second;
  }
  entry->token.Cancel(std::move(reason));
  return Status::OK();
}

void SessionRegistry::CancelAll(Status reason) {
  std::vector<std::shared_ptr<Entry>> live;
  {
    MutexLock lock(mutex_);
    for (const auto& [id, entry] : live_) live.push_back(entry);
  }
  for (const auto& entry : live) entry->token.Cancel(reason);
}

Status SessionRegistry::WaitSession(const std::string& id) {
  MutexLock lock(mutex_);
  for (;;) {
    auto done = retired_.find(id);
    if (done != retired_.end()) return done->second;
    auto it = live_.find(id);
    if (it == live_.end()) {
      return Status::NotFound("session '" + id + "' was never started");
    }
    std::shared_ptr<Entry> entry = it->second;
    entry->done.Wait(mutex_);
  }
}

Status SessionRegistry::WaitAll() {
  std::thread last;
  {
    MutexLock lock(mutex_);
    // A body may start further sessions, so wait until none is live.
    while (!live_.empty()) {
      std::shared_ptr<Entry> entry = live_.begin()->second;
      entry->done.Wait(mutex_);
    }
    last = std::move(unjoined_);
  }
  if (last.joinable()) last.join();
  MutexLock lock(mutex_);
  for (const auto& [id, status] : retired_) {
    if (!status.ok()) {
      return Status(status.code(),
                    "session '" + id + "': " + status.message());
    }
  }
  return Status::OK();
}

size_t SessionRegistry::ActiveCount() const {
  MutexLock lock(mutex_);
  return live_.size();
}

std::vector<std::string> SessionRegistry::SessionIds() const {
  MutexLock lock(mutex_);
  std::vector<std::string> ids;
  ids.reserve(live_.size() + retired_.size());
  for (const auto& [id, entry] : live_) ids.push_back(id);
  for (const auto& [id, status] : retired_) ids.push_back(id);
  // Two sorted runs.
  std::inplace_merge(ids.begin(), ids.begin() + live_.size(), ids.end());
  return ids;
}

}  // namespace ppc
