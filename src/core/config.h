#ifndef PPC_CORE_CONFIG_H_
#define PPC_CORE_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "data/alphabet.h"
#include "data/taxonomy.h"
#include "rng/prng.h"

namespace ppc {

/// Masking strategy of the numeric comparison protocol (paper Sec. 4.1).
enum class MaskingMode : uint8_t {
  /// One mask per initiator object, reused against every responder object —
  /// the paper's batch protocol. Initiator traffic O(n); vulnerable to the
  /// frequency-analysis attack when attribute ranges are small.
  kBatch = 0,
  /// A fresh (mask, sign) pair per object *pair* — the paper's mitigation
  /// ("site DHK can request omitting batch processing of inputs and using
  /// unique random numbers for each object pair"). Initiator traffic grows
  /// to O(n·m).
  kPerPair = 1,
};

/// Canonical name of `mode` ("batch" / "per-pair").
const char* MaskingModeToString(MaskingMode mode);

/// How much parallelism the protocol schedule graph exposes to the
/// concurrent executor (core/schedule.h). Results are bit-identical either
/// way; only the dependency edges differ.
enum class ScheduleGranularity : uint8_t {
  /// Full dependency tracking: a responder round depends only on its own
  /// inbound message, so per-attribute computes of one responder — and
  /// phase-5 work overlapping phase-4 stragglers — run concurrently.
  kFine = 0,
  /// Conservative escape hatch: extra edges serialize each responder's
  /// phase-5 rounds (the pre-graph engine's responder grouping).
  kGrouped = 1,
};

/// Canonical name of `granularity` ("fine" / "grouped").
const char* ScheduleGranularityToString(ScheduleGranularity granularity);

/// Shared parameters every participant (data holders and third party) must
/// agree on before the protocol starts, alongside the attribute `Schema`.
struct ProtocolConfig {
  /// Masking strategy for numeric attributes.
  MaskingMode masking_mode = MaskingMode::kBatch;

  /// PRNG family used for all protocol masks. ChaCha20 is the
  /// deployment-faithful choice; the statistical generators exist for
  /// ablations.
  PrngKind prng_kind = PrngKind::kChaCha20;

  /// Fixed-point precision for real-valued attributes (decimal digits kept).
  int real_decimal_digits = 6;

  /// Worker threads for the concurrent protocol engine. The single rule,
  /// honored by both `ClusteringSession::Run` and `RunParallel`:
  ///
  ///   * 1 (the default) — every phase on the caller's thread, the
  ///     deterministic sequential reference schedule.
  ///   * 0 — auto: resolve to the hardware concurrency.
  ///   * n > 1 — the concurrent engine with exactly n workers, driving
  ///     independent protocol rounds concurrently and parallelizing the
  ///     O(n^2) inner loops.
  ///
  /// Because every mask stream is derived from a per-(attribute,
  /// initiator, responder) label, results are bit-identical across thread
  /// counts.
  size_t num_threads = 1;

  /// Dependency granularity of the schedule graph the concurrent executor
  /// runs (ignored by the sequential reference schedule). See
  /// `ScheduleGranularity`.
  ScheduleGranularity schedule_granularity = ScheduleGranularity::kFine;

  /// Row-tile height for the quadratic phases (4 and 5). Every local
  /// matrix and comparison result travels as row-range messages, each
  /// streamed through its own schedule-graph steps. 0 (the default) sends
  /// one range per holder round, covering all of that holder's rows. A
  /// positive value splits each round into tiles of at most `tile_size`
  /// rows: the third party starts unmasking early tiles while later tiles
  /// are still being built and sent, and peak per-message memory drops
  /// from O(n^2) to O(n * tile_size). Final matrices (and therefore
  /// dendrograms/outcomes) are bit-identical at every tile size; the wire
  /// carries one range header per tile, which the communication model
  /// prices exactly.
  size_t tile_size = 0;

  /// End-to-end session deadline in milliseconds. 0 (the default) means
  /// no deadline: a blocking receive waits up to the transport's
  /// `receive_timeout` and surfaces `kUnavailable` when the peer never
  /// delivers. A positive value arms the session's `CancelToken` before
  /// the schedule runs; once it expires every party's next blocking
  /// receive and every executor's next schedule step fail with a typed
  /// `kDeadlineExceeded` (session, phase, peer, and topic in the
  /// message) instead of wedging on a dead peer.
  uint64_t deadline_ms = 0;

  /// Alphabet of every alphanumeric attribute. The paper requires a finite,
  /// publicly known alphabet so that masking can wrap modulo its size.
  Alphabet alphabet = Alphabet::Dna();

  /// Optional category hierarchies, keyed by attribute name. A categorical
  /// attribute listed here is compared with the normalized tree-path
  /// distance via `TaxonomyProtocol` instead of the flat 0/1 protocol —
  /// the Sec. 4.3 future work, wired into the ordinary session. Taxonomy
  /// *structures* are public (like the comparison functions); only values
  /// are private.
  std::map<std::string, CategoryTaxonomy> taxonomies;
};

}  // namespace ppc

#endif  // PPC_CORE_CONFIG_H_
