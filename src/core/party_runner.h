#ifndef PPC_CORE_PARTY_RUNNER_H_
#define PPC_CORE_PARTY_RUNNER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/data_holder.h"
#include "core/outcome.h"
#include "core/schedule.h"
#include "core/third_party.h"
#include "data/schema.h"

namespace ppc {

/// One party's side of the protocol schedule, for deployments where each
/// party is its own OS process (or thread) on a distributed `Network`
/// backend.
///
/// Every process builds the identical `Schedule` graph from the shared
/// `SessionPlan` + `Schema` (see core/schedule.h) and runs its own steps
/// in the graph's canonical order — the per-party projection of the exact
/// schedule `ClusteringSession` interleaves in-process. Sends are
/// non-blocking on every backend, and each receive names its peer and
/// topic, so blocking receives (a nonzero `Network` receive timeout is
/// required) are the only synchronization the run needs; because every
/// process follows one global canonical order, a receive can only wait on
/// a send that is globally earlier, so no wait cycle is possible. Message
/// contents and per-channel orders are identical to the in-process
/// session, which is what keeps a distributed run's dissimilarity matrices
/// bit-identical to the simulator's.
class PartyRunner {
 public:
  /// Runs a data holder's side of phases 1-5 (hello through comparison
  /// rounds). The holder must have its data installed and appear in
  /// `plan.holder_order`. When the holder's config sets `tile_size > 0`
  /// the run is two-stage: setup phases on the tile_size 0 graph, then the
  /// quadratic phases on the tiled graph built from the roster's object
  /// counts (see ScheduleExecutor::RunParty's phase-bounded overloads).
  static Status RunHolder(DataHolder* holder, const SessionPlan& plan,
                          const Schema& schema);

  /// Runs the third party's side of phases 1-6 (hellos through
  /// normalization). After this returns the third party can serve
  /// clustering requests.
  static Status RunThirdParty(ThirdParty* third_party, const SessionPlan& plan,
                              const Schema& schema);

  /// Full request round-trip for a holder whose schedule already ran:
  /// sends the order and blocks for the published outcome. The third-party
  /// process must call `ThirdParty::ServeClusterRequest` for this holder.
  static Result<ClusteringOutcome> RequestClustering(
      DataHolder* holder, const SessionPlan& plan,
      const ClusterRequest& request);
};

}  // namespace ppc

#endif  // PPC_CORE_PARTY_RUNNER_H_
