#include "core/party_runner.h"

namespace ppc {

namespace {

Status HolderInPlan(const SessionPlan& plan, const std::string& name) {
  // The same plan preconditions Schedule::Build enforces for the run
  // drivers, kept here too so plan-less entry points (RequestClustering)
  // fail with the precondition diagnostic instead of deep in the
  // transport.
  if (plan.holder_order.size() < 2) {
    return Status::FailedPrecondition(
        "the protocol requires at least two data holders (k >= 2)");
  }
  if (plan.third_party.empty()) {
    return Status::InvalidArgument("plan names no third party");
  }
  for (const std::string& holder : plan.holder_order) {
    if (holder == name) return Status::OK();
  }
  return Status::NotFound("holder '" + name + "' is not in the session plan");
}

/// Runs `party`'s projection of the graph its config determines.
/// `Party` is DataHolder or ThirdParty.
template <typename Party>
Status RunOwnSteps(Party* party, const SessionPlan& plan,
                   const Schema& schema) {
  Schedule::Options options;
  options.tile_size = party->config().tile_size;
  options.masking = party->config().masking_mode;
  if (options.tile_size == 0) {
    // One open row range per round: the graph needs no object counts.
    PPC_ASSIGN_OR_RETURN(Schedule schedule,
                         Schedule::Build(plan, schema, options));
    return ScheduleExecutor::RunParty(schedule, party);
  }
  // Tiled run. Tile boundaries are part of the graph and depend on every
  // holder's object count, which a distributed process only learns from
  // the phase-1 roster. Phases 1-3 do not depend on the tile size (tiling
  // only reshapes phases 4-5), so: run setup from the tile_size 0 graph,
  // read the counts off the roster, and resume from phase 4 on the tiled
  // graph those counts determine. Every process performs the same split,
  // so per-channel wire order still follows one global canonical order.
  PPC_ASSIGN_OR_RETURN(Schedule setup, Schedule::Build(plan, schema));
  PPC_RETURN_IF_ERROR(ScheduleExecutor::RunParty(setup, party, 1, 3));
  options.holder_objects.reserve(plan.holder_order.size());
  for (const std::string& name : plan.holder_order) {
    PPC_ASSIGN_OR_RETURN(uint64_t count, party->RosterCount(name));
    options.holder_objects.push_back(count);
  }
  PPC_ASSIGN_OR_RETURN(Schedule tiled, Schedule::Build(plan, schema, options));
  return ScheduleExecutor::RunParty(tiled, party, 4, kLastPhase);
}

}  // namespace

Status PartyRunner::RunHolder(DataHolder* holder, const SessionPlan& plan,
                              const Schema& schema) {
  PPC_RETURN_IF_ERROR(HolderInPlan(plan, holder->name()));
  return RunOwnSteps(holder, plan, schema);
}

Status PartyRunner::RunThirdParty(ThirdParty* third_party,
                                  const SessionPlan& plan,
                                  const Schema& schema) {
  if (third_party->name() != plan.third_party) {
    return Status::InvalidArgument("third party '" + third_party->name() +
                                   "' does not match the plan's '" +
                                   plan.third_party + "'");
  }
  return RunOwnSteps(third_party, plan, schema);
}

Result<ClusteringOutcome> PartyRunner::RequestClustering(
    DataHolder* holder, const SessionPlan& plan,
    const ClusterRequest& request) {
  PPC_RETURN_IF_ERROR(HolderInPlan(plan, holder->name()));
  PPC_RETURN_IF_ERROR(
      holder->SendClusterRequest(plan.third_party, request));
  return holder->ReceiveClusterOutcome(plan.third_party);
}

}  // namespace ppc
