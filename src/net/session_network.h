#ifndef PPC_NET_SESSION_NETWORK_H_
#define PPC_NET_SESSION_NETWORK_H_

#include <string>
#include <utility>

#include "common/result.h"
#include "common/status.h"
#include "net/network.h"

namespace ppc {

/// A `Network` view that binds one session id over a shared transport.
/// The protocol stack — parties, schedule executors, `PartyRunner` — takes
/// a `Network*` and knows nothing about sessions; handing it one of these
/// runs an entire clustering session multiplexed over whatever transport
/// (and, on TCP, whatever pooled connections) the base provides.
/// `SessionRegistry` creates one view per concurrent session.
///
/// Semantics:
///   * Every session-taking core call maps `kDefaultSession` and
///     `kAllSessions` to the bound id and passes any other explicit id
///     through. So `Send`/`Receive` act on the bound session, and
///     `GrandTotal`/`PendingCount`/`AddTap` observe it alone.
///   * `RegisterParty` tolerates kAlreadyExists: parties belong to the
///     transport, not the session, and N concurrent sessions share them.
///   * `ResetStats`, `set_receive_timeout`, `security` and `PurgeSession`
///     remain transport-wide — a view cannot reset or retime just its
///     slice.
///
/// The view holds no state beyond the id; it is as thread-safe as the
/// base and must not outlive it.
class SessionNetwork : public Network {
 public:
  SessionNetwork(Network* base, std::string session)
      : base_(base), session_(std::move(session)) {}

  const std::string& session() const { return session_; }
  Network* base() const { return base_; }

  Status RegisterParty(const std::string& name) override {
    Status status = base_->RegisterParty(name);
    if (status.code() == StatusCode::kAlreadyExists) return Status::OK();
    return status;
  }
  bool HasParty(const std::string& name) const override {
    return base_->HasParty(name);
  }
  TransportSecurity security() const override { return base_->security(); }
  void set_receive_timeout(std::chrono::milliseconds timeout) override {
    base_->set_receive_timeout(timeout);
  }
  std::chrono::milliseconds receive_timeout() const override {
    return base_->receive_timeout();
  }
  void ResetStats() override { base_->ResetStats(); }
  void PurgeSession(const std::string& session) override {
    base_->PurgeSession(session);
  }

  Status SendOn(const std::string& session, const std::string& from,
                const std::string& to, const std::string& topic,
                std::string payload) override {
    return base_->SendOn(Bind(session), from, to, topic, std::move(payload));
  }
  Status InjectFrameOn(const std::string& session, const std::string& from,
                       const std::string& to, const std::string& topic,
                       std::string wire_bytes) override {
    return base_->InjectFrameOn(Bind(session), from, to, topic,
                                std::move(wire_bytes));
  }
  Result<Message> ReceiveOn(const std::string& session, const std::string& to,
                            const std::string& from,
                            const std::string& expected_topic,
                            const CancelToken* cancel) override {
    return base_->ReceiveOn(Bind(session), to, from, expected_topic, cancel);
  }
  ChannelStats StatsOn(const std::string& scope, const std::string& from,
                       const std::string& to) const override {
    return base_->StatsOn(Bind(scope), from, to);
  }
  size_t PendingCountOn(const std::string& scope,
                        const std::string& to) const override {
    return base_->PendingCountOn(Bind(scope), to);
  }
  void AddTapOn(const std::string& scope, const std::string& from,
                const std::string& to, Tap tap) override {
    base_->AddTapOn(Bind(scope), from, to, std::move(tap));
  }

 private:
  /// The bound id for the two implicit scopes; any other id unchanged.
  const std::string& Bind(const std::string& session) const {
    return session.empty() || session == kAllSessions ? session_ : session;
  }

  Network* base_;
  std::string session_;
};

}  // namespace ppc

#endif  // PPC_NET_SESSION_NETWORK_H_
