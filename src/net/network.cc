#include "net/network.h"

namespace ppc {

// Out-of-line key function so the interface's vtable has a home TU.
Network::~Network() = default;

Status CheckRealSession(const std::string& session) {
  if (session != kAllSessions) return Status::OK();
  return Status::InvalidArgument(
      std::string("session id '") + kAllSessions +
      "' is the reserved every-session scope, not a session");
}

}  // namespace ppc
