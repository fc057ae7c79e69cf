#include "net/in_memory_network.h"

namespace ppc {

InMemoryNetwork::InMemoryNetwork(TransportSecurity security)
    : ChannelTransport(security) {}

Status InMemoryNetwork::RegisterParty(const std::string& name) {
  if (name.empty()) {
    return Status::InvalidArgument("party name must be non-empty");
  }
  MutexLock lock(registry_mutex_);
  auto [it, inserted] = parties_.try_emplace(name);
  if (!inserted) {
    return Status::AlreadyExists("party '" + name + "' already registered");
  }
  it->second = std::make_unique<Endpoint>();
  return Status::OK();
}

bool InMemoryNetwork::HasParty(const std::string& name) const {
  return FindEndpoint(name) != nullptr;
}

Status InMemoryNetwork::ResolveRoute(const std::string& session,
                                     const std::string& from,
                                     const std::string& to,
                                     Endpoint** receiver,
                                     std::shared_ptr<ChannelState>* channel) {
  MutexLock lock(registry_mutex_);
  if (parties_.find(from) == parties_.end()) {
    return Status::NotFound("unknown sender '" + from + "'");
  }
  auto to_it = parties_.find(to);
  if (to_it == parties_.end()) {
    return Status::NotFound("unknown receiver '" + to + "'");
  }
  *receiver = to_it->second.get();
  if (channel == nullptr) return CheckLiveLocked(session);
  PPC_ASSIGN_OR_RETURN(*channel, ChannelForLocked(session, from, to));
  return Status::OK();
}

Status InMemoryNetwork::SendOn(const std::string& session,
                               const std::string& from, const std::string& to,
                               const std::string& topic, std::string payload) {
  Endpoint* receiver = nullptr;
  std::shared_ptr<ChannelState> channel;
  PPC_RETURN_IF_ERROR(ResolveRoute(session, from, to, &receiver, &channel));
  PPC_ASSIGN_OR_RETURN(
      std::string wire,
      PrepareFrame(session, from, to, topic, payload, channel.get()));
  return DeliverLocal(receiver,
                      Message{from, to, topic, std::move(wire), session});
}

Status InMemoryNetwork::InjectFrameOn(const std::string& session,
                                      const std::string& from,
                                      const std::string& to,
                                      const std::string& topic,
                                      std::string wire_bytes) {
  Endpoint* receiver = nullptr;
  PPC_RETURN_IF_ERROR(ResolveRoute(session, from, to, &receiver, nullptr));
  return DeliverLocal(receiver,
                      Message{from, to, topic, std::move(wire_bytes), session});
}

}  // namespace ppc
