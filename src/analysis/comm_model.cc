#include "analysis/comm_model.h"

#include "net/secure_channel.h"

namespace ppc {

uint64_t CommModel::AlnumInitiatorPayload(
    const std::vector<uint64_t>& string_lengths) {
  uint64_t total = kAttrHeader + kVectorHeader;
  for (uint64_t length : string_lengths) {
    total += kVectorHeader + length;  // Per-string length prefix + bytes.
  }
  return total;
}

uint64_t CommModel::AlnumResponderTilePayload(
    const std::vector<uint64_t>& responder_lengths, uint64_t row_begin,
    uint64_t row_end, const std::vector<uint64_t>& initiator_lengths,
    uint64_t initiator_name_length) {
  uint64_t total = kAttrHeader + kVectorHeader + initiator_name_length +
                   3 * kU64;
  for (uint64_t r = row_begin; r < row_end && r < responder_lengths.size();
       ++r) {
    for (uint64_t p : initiator_lengths) {
      total += 4 + 4 + kVectorHeader + responder_lengths[r] * p;
    }
  }
  return total;
}

namespace {

Result<const HolderTrafficProfile*> FindProfile(
    const std::map<std::string, HolderTrafficProfile>& profiles,
    const std::string& holder) {
  auto it = profiles.find(holder);
  if (it == profiles.end()) {
    return Status::InvalidArgument("no traffic profile for holder '" +
                                   holder + "'");
  }
  return &it->second;
}

Result<const std::vector<uint64_t>*> FindLengths(
    const HolderTrafficProfile& profile, const std::string& holder,
    size_t column) {
  auto it = profile.string_lengths.find(column);
  if (it == profile.string_lengths.end()) {
    return Status::InvalidArgument(
        "profile for holder '" + holder + "' lacks string lengths for "
        "alphanumeric attribute " + std::to_string(column));
  }
  return &it->second;
}

}  // namespace

Result<std::map<int, uint64_t>> ScheduleCommModel::PredictPhasePayloads(
    const Schedule& schedule, const ProtocolConfig& config,
    const std::map<std::string, HolderTrafficProfile>& profiles) {
  const Schema& schema = schedule.schema();
  std::map<int, uint64_t> predicted;
  for (const ScheduleStep& step : schedule.steps()) {
    if (!step.sends) continue;
    uint64_t payload = 0;
    switch (step.kind) {
      case StepKind::kLocalMatrixSend: {
        PPC_ASSIGN_OR_RETURN(const HolderTrafficProfile* sender,
                             FindProfile(profiles, step.actor));
        payload = CommModel::LocalMatrixTilePayload(
            step.row_begin, step.RowEnd(sender->objects));
        break;
      }
      case StepKind::kComparisonInit: {
        PPC_ASSIGN_OR_RETURN(const HolderTrafficProfile* initiator,
                             FindProfile(profiles, step.actor));
        if (schedule.RowRangedInitiator(step.column)) {
          PPC_ASSIGN_OR_RETURN(const HolderTrafficProfile* responder,
                               FindProfile(profiles, step.peer));
          payload = CommModel::NumericInitiatorTilePayload(
              initiator->objects, step.row_begin,
              step.RowEnd(responder->objects));
        } else if (schedule.IsNumericColumn(step.column)) {
          payload = CommModel::NumericInitiatorPayload(initiator->objects);
        } else {
          PPC_ASSIGN_OR_RETURN(
              const std::vector<uint64_t>* lengths,
              FindLengths(*initiator, step.actor, step.column));
          payload = CommModel::AlnumInitiatorPayload(*lengths);
        }
        break;
      }
      case StepKind::kComparisonSend: {
        PPC_ASSIGN_OR_RETURN(const HolderTrafficProfile* responder,
                             FindProfile(profiles, step.actor));
        PPC_ASSIGN_OR_RETURN(const HolderTrafficProfile* initiator,
                             FindProfile(profiles, step.initiator));
        const uint64_t row_end = step.RowEnd(responder->objects);
        if (schedule.IsNumericColumn(step.column)) {
          payload = CommModel::NumericResponderTilePayload(
              initiator->objects, step.row_begin, row_end,
              step.initiator.size());
        } else {
          PPC_ASSIGN_OR_RETURN(
              const std::vector<uint64_t>* responder_lengths,
              FindLengths(*responder, step.actor, step.column));
          PPC_ASSIGN_OR_RETURN(
              const std::vector<uint64_t>* initiator_lengths,
              FindLengths(*initiator, step.initiator, step.column));
          payload = CommModel::AlnumResponderTilePayload(
              *responder_lengths, step.row_begin, row_end, *initiator_lengths,
              step.initiator.size());
        }
        break;
      }
      case StepKind::kCategoricalTokensSend: {
        if (config.taxonomies.count(schema.attribute(step.column).name) !=
            0) {
          return Status::Unimplemented(
              "taxonomic token payloads depend on private per-object "
              "category depths; no closed-form prediction");
        }
        PPC_ASSIGN_OR_RETURN(const HolderTrafficProfile* sender,
                             FindProfile(profiles, step.actor));
        payload = CommModel::CategoricalPayload(sender->objects);
        break;
      }
      default:
        continue;  // Setup-phase key material: deliberately unmodeled.
    }
    predicted[step.phase] += payload;
  }
  return predicted;
}

void ScheduleTrafficAudit::Attach(Network* network,
                                  const Schedule& schedule) {
  topic_phases_ = schedule.TopicPhases();
  frame_overhead_ =
      network->security() == TransportSecurity::kAuthenticatedEncryption
          ? SecureChannel::kNonceLength + SecureChannel::kMacLength
          : 0;
  for (const auto& [from, to] : schedule.Channels()) {
    network->AddTap(from, to, [this](const WireFrame& frame) {
      auto phase = topic_phases_.find(frame.topic);
      if (phase == topic_phases_.end()) return;  // Not a protocol step.
      MutexLock lock(mutex_);
      PhaseTraffic& traffic = totals_[phase->second];
      traffic.messages += 1;
      traffic.wire_bytes += frame.wire_bytes.size();
      traffic.payload_bytes += frame.wire_bytes.size() - frame_overhead_;
    });
  }
}

std::map<int, ScheduleTrafficAudit::PhaseTraffic>
ScheduleTrafficAudit::PhaseTotals() const {
  MutexLock lock(mutex_);
  return totals_;
}

}  // namespace ppc
