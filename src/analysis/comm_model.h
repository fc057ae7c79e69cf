#ifndef PPC_ANALYSIS_COMM_MODEL_H_
#define PPC_ANALYSIS_COMM_MODEL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "core/config.h"
#include "core/schedule.h"
#include "net/network.h"

namespace ppc {

/// Closed-form predictions of protocol payload sizes, in bytes, matching
/// the serialization of `DataHolder` exactly. These are the constants
/// behind the paper's asymptotic claims (Sec. 4.1-4.3):
///
///   numeric:      initiator O(n^2 + n), responder O(m^2 + m n)
///   alphanumeric: initiator O(n^2 + n p), responder O(m^2 + m q n p)
///   categorical:  each party O(n)
///
/// The communication-cost experiments (E8-E10) assert that the payload
/// bytes observed on the wire — via any `Network` backend's channel
/// stats, simulator or TCP alike, since both account the identical
/// frames — equal these predictions, then print the measured-vs-model
/// table per size sweep.
class CommModel {
 public:
  /// Serialization constants (see common/serde.h): u32 length prefix etc.
  static constexpr uint64_t kVectorHeader = 4;   // u32 element count.
  static constexpr uint64_t kAttrHeader = 4;     // u32 attribute index.
  static constexpr uint64_t kU64 = 8;
  static constexpr uint64_t kF64 = 8;
  static constexpr uint64_t kTokenBytes = 16;    // Deterministic token size.

  /// Batch numeric initiator -> responder payload: attr, mode tag, row
  /// word and the n masked words every responder range build shares.
  static uint64_t NumericInitiatorPayload(uint64_t n) {
    return kAttrHeader + /*mode*/ 1 + /*rows*/ kU64 + kVectorHeader +
           n * kU64;
  }

  /// Alphanumeric initiator -> responder payload for strings of the given
  /// lengths: one masked byte per character.
  static uint64_t AlnumInitiatorPayload(
      const std::vector<uint64_t>& string_lengths);

  // -- Row-range payloads ----------------------------------------------------
  // Every phase-4/5 message except the two initiator payloads above covers
  // rows [row_begin, row_end) of its round's owner and carries that range
  // in its header. A round is one range over all rows (tile_size 0) or
  // several tiles, so a tiled run exceeds the one-range run by exactly
  // (tiles - 1) headers per round — which is why `analyze` reconciles to
  // the byte at any tile size.

  /// Packed-triangle cells of rows [0, r): r * (r - 1) / 2.
  static uint64_t TriangleCells(uint64_t r) { return r * (r - 1) / 2; }

  /// Fig.-12 local-matrix range: attr + total rows + range + the packed
  /// cells of rows [row_begin, row_end).
  static uint64_t LocalMatrixTilePayload(uint64_t row_begin,
                                         uint64_t row_end) {
    return kAttrHeader + 3 * kU64 + kVectorHeader +
           (TriangleCells(row_end) - TriangleCells(row_begin)) * kF64;
  }

  /// Per-pair numeric initiator range: fresh masks for responder rows
  /// [row_begin, row_end) against all n initiator objects.
  static uint64_t NumericInitiatorTilePayload(uint64_t n, uint64_t row_begin,
                                              uint64_t row_end) {
    return kAttrHeader + /*mode*/ 1 + 2 * kU64 + kVectorHeader +
           (row_end - row_begin) * n * kU64;
  }

  /// Numeric responder -> TP range: comparison rows [row_begin, row_end)
  /// x n, plus the initiator-name echo, masking tag, range and width.
  static uint64_t NumericResponderTilePayload(uint64_t n, uint64_t row_begin,
                                              uint64_t row_end,
                                              uint64_t initiator_name_length) {
    return kAttrHeader + kVectorHeader + initiator_name_length + /*mode*/ 1 +
           3 * kU64 + kVectorHeader + (row_end - row_begin) * n * kU64;
  }

  /// Alphanumeric responder -> TP range: CCM grids of responder strings
  /// [row_begin, row_end) against every initiator string.
  static uint64_t AlnumResponderTilePayload(
      const std::vector<uint64_t>& responder_lengths, uint64_t row_begin,
      uint64_t row_end, const std::vector<uint64_t>& initiator_lengths,
      uint64_t initiator_name_length);

  /// Categorical party -> TP payload: kind tag + one 16-byte token per
  /// object (flat protocol).
  static uint64_t CategoricalPayload(uint64_t n) {
    return kAttrHeader + /*kind*/ 1 + kVectorHeader +
           n * (kVectorHeader + kTokenBytes);
  }

  /// Hierarchical categorical payload: kind tag + count + one token per
  /// path level. `depths[i]` is the taxonomy depth of object i's category.
  static uint64_t TaxonomicPayload(const std::vector<uint64_t>& depths) {
    uint64_t total = kAttrHeader + 1 + 4;
    for (uint64_t depth : depths) {
      total += kVectorHeader + depth * (kVectorHeader + kTokenBytes);
    }
    return total;
  }
};

/// Per-holder inputs the schedule-driven traffic predictions need: object
/// counts for the numeric/matrix payloads, per-object string lengths (in
/// alphabet symbols — one symbol per character) for the alphanumeric ones.
struct HolderTrafficProfile {
  uint64_t objects = 0;
  std::map<size_t, std::vector<uint64_t>> string_lengths;  // column -> sizes
};

/// Closed-form traffic predictions driven by the schedule graph: every
/// send step of the graph is priced with the `CommModel` formula its topic
/// tag selects, then summed per paper phase. This is the model half of the
/// predicted-vs-measured breakdown the CLI `analyze` command prints (and
/// the E8-E10 experiments assert).
class ScheduleCommModel {
 public:
  /// Predicted protocol payload bytes per phase. Only phases with a
  /// closed form appear in the map — 4 (local matrices) and 5 (comparison
  /// and categorical rounds); setup phases ship variable-length key
  /// material the model deliberately does not cover. Fails if a profile
  /// is missing for a holder (or string lengths for an alphanumeric
  /// attribute), and for taxonomic attributes (their payloads depend on
  /// private per-object depths).
  static Result<std::map<int, uint64_t>> PredictPhasePayloads(
      const Schedule& schedule, const ProtocolConfig& config,
      const std::map<std::string, HolderTrafficProfile>& profiles);
};

/// The measurement half: taps every directed channel the schedule uses
/// and attributes each observed frame to its paper phase through the
/// graph's topic tags. Works on any `Network` backend — taps observe the
/// identical wire bytes on the simulator and over TCP.
class ScheduleTrafficAudit {
 public:
  struct PhaseTraffic {
    uint64_t messages = 0;
    /// Bytes on the wire (includes nonce/MAC framing when secured).
    uint64_t wire_bytes = 0;
    /// Application payload bytes (wire minus the constant per-frame
    /// transport framing) — the quantity `ScheduleCommModel` predicts.
    uint64_t payload_bytes = 0;
  };

  /// Installs taps on `network` for every channel in `schedule`. Call
  /// before the protocol runs; the audit must outlive the network's use.
  void Attach(Network* network, const Schedule& schedule);

  /// Accumulated traffic per phase (phases without traffic are absent).
  std::map<int, PhaseTraffic> PhaseTotals() const;

 private:
  std::map<std::string, int> topic_phases_;
  uint64_t frame_overhead_ = 0;
  mutable Mutex mutex_;
  std::map<int, PhaseTraffic> totals_ GUARDED_BY(mutex_);
};

}  // namespace ppc

#endif  // PPC_ANALYSIS_COMM_MODEL_H_
