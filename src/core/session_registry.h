#ifndef PPC_CORE_SESSION_REGISTRY_H_
#define PPC_CORE_SESSION_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/network.h"
#include "net/session_network.h"

namespace ppc {

/// Runs N concurrent logical clustering sessions over one shared
/// transport. Each started session gets its own `SessionNetwork` view
/// (binding its id over the shared `Network`) and its own worker thread
/// running the caller's body — typically a `PartyRunner` role or a full
/// `ClusteringSession` — so many schedule-graph executions proceed at
/// once while every frame crosses the same pooled, authenticated
/// connections.
///
/// Session ids are single-use per registry: a duplicate (or empty — that
/// is the transport's default session) id is refused, even long after the
/// first session with that id finished. The registry owns the views and
/// threads; the caller guarantees the transport and whatever state the
/// bodies capture outlive it. All methods are thread-safe.
///
/// State stays bounded in a long-running daemon: the moment a body
/// returns, its worker purges the session from the transport (see
/// `Network::PurgeSession`), drops the session's view and token, and
/// keeps only the final Status under its id. Finished workers are joined
/// by the next one to finish (and the last by `WaitAll`), so at most one
/// exited thread awaits its join. Because the purge frees the whole
/// session at this endpoint, a session must be started on exactly one
/// registry per transport.
class SessionRegistry {
 public:
  /// One session's whole execution, handed its session-scoped network
  /// and the registry's per-session cancellation token. Bodies that run
  /// protocol parties should bind the token (`BindCancelToken`) so
  /// `CancelSession`/`CancelAll` (and an armed deadline) can unwedge
  /// their blocking receives; bodies that ignore it remain correct, just
  /// not promptly cancellable. The returned status is the session's
  /// outcome (see `WaitSession`).
  using SessionBody = std::function<Status(Network* session_net,
                                           CancelToken* cancel)>;

  explicit SessionRegistry(Network* transport) : transport_(transport) {}

  /// Joins every session still running.
  ~SessionRegistry() { (void)WaitAll(); }

  SessionRegistry(const SessionRegistry&) = delete;
  SessionRegistry& operator=(const SessionRegistry&) = delete;

  /// Starts session `id` on its own thread. kInvalidArgument on an empty
  /// id or the reserved `kAllSessions` scope, kAlreadyExists on a reused
  /// one (even after it finished — a session id names one protocol
  /// execution, ever).
  Status StartSession(const std::string& id, SessionBody body)
      EXCLUDES(mutex_);

  /// Blocks until session `id` finishes and returns its body's status —
  /// also long after the session was reaped (kNotFound for an id never
  /// started). Safe to call repeatedly and concurrently.
  Status WaitSession(const std::string& id) EXCLUDES(mutex_);

  /// Waits for every session; returns the first non-OK session status (in
  /// session-id order), decorated with the session id.
  Status WaitAll() EXCLUDES(mutex_);

  /// Trips session `id`'s cancel token with `reason` (an OK reason is
  /// coerced to a generic cancellation error). The token wakes the
  /// session's parked receives at once and its step boundaries see the
  /// reason; its worker then finishes with that status and the session
  /// is purged like any other. kNotFound for an id never started; OK (and
  /// no effect) for one that already finished. Does not block; pair with
  /// `WaitSession` to observe the actual termination.
  Status CancelSession(const std::string& id, Status reason) EXCLUDES(mutex_);

  /// `CancelSession` for every session not yet finished.
  void CancelAll(Status reason) EXCLUDES(mutex_);

  /// Sessions started and not yet finished. O(1).
  size_t ActiveCount() const EXCLUDES(mutex_);

  /// Every session id ever started, in id order.
  std::vector<std::string> SessionIds() const EXCLUDES(mutex_);

 private:
  /// A running session. Shared-owned: `WaitSession` keeps it (and its
  /// `done` CondVar) alive across a wait that outlasts the entry's place
  /// in `live_`.
  struct Entry {
    Entry(Network* transport, const std::string& id) : view(transport, id) {}

    SessionNetwork view;
    /// Cancellation/deadline token of this session; handed to the body
    /// and tripped by `CancelSession`/`CancelAll`.
    CancelToken token;
    /// Written under the registry's `mutex_` only (assigned by
    /// `StartSession`, moved out by `Retire`); the annotation cannot name
    /// the outer mutex.
    std::thread worker;
    /// Signalled, with `mutex_` held, when the session retires.
    CondVar done;
  };

  /// The worker's last act: records `result` under `id`, erases the live
  /// entry, and joins the previously finished worker.
  void Retire(const std::string& id, Status result) EXCLUDES(mutex_);

  Network* transport_;
  mutable Mutex mutex_;
  /// Running sessions.
  std::map<std::string, std::shared_ptr<Entry>> live_ GUARDED_BY(mutex_);
  /// Finished sessions: id -> the body's final status.
  std::map<std::string, Status> retired_ GUARDED_BY(mutex_);
  /// The most recently finished worker, not yet joined.
  std::thread unjoined_ GUARDED_BY(mutex_);
};

}  // namespace ppc

#endif  // PPC_CORE_SESSION_REGISTRY_H_
