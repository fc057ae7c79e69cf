#ifndef PPC_CORE_THIRD_PARTY_H_
#define PPC_CORE_THIRD_PARTY_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/cancellation.h"
#include "common/fixed_point.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "core/config.h"
#include "core/outcome.h"
#include "core/taxonomy_protocol.h"
#include "crypto/diffie_hellman.h"
#include "data/schema.h"
#include "distance/dissimilarity_matrix.h"
#include "net/network.h"
#include "rng/prng.h"

namespace ppc {

/// The semi-trusted third party (paper Sec. 3): owns no data, but supplies
/// computation and storage — it governs the protocol, assembles the global
/// per-attribute dissimilarity matrices, clusters, and publishes results.
///
/// Honest-but-curious by assumption: it follows the protocol but remembers
/// everything it sees; the comparison protocols are designed so that what it
/// sees is only masked values and distances. The matrices it builds are kept
/// private — data holders receive only `ClusteringOutcome`s ("dissimilarity
/// matrices must be kept secret by the third party because data holder
/// parties can use distance scores to infer private information").
class ThirdParty {
 public:
  ThirdParty(std::string name, Network* network, ProtocolConfig config,
             Schema schema, uint64_t entropy_seed);

  const std::string& name() const { return name_; }

  /// Binds the session's cancellation/deadline token: every later
  /// blocking receive polls it (null, the default, means "never
  /// cancelled"). Must outlive the protocol run.
  void BindCancelToken(const CancelToken* cancel) { cancel_ = cancel; }
  const CancelToken* cancel_token() const { return cancel_; }

  /// Total objects across all holders (after ReceiveHellos).
  size_t total_objects() const { return total_objects_; }

  // -- Session setup ---------------------------------------------------------

  /// Receives each holder's hello (object count), in the given order, which
  /// becomes the global party order: holder h's object `i` has global index
  /// offset(h) + i.
  Status ReceiveHellos(const std::vector<std::string>& holders);

  /// Sends every holder the roster (party order + object counts).
  Status BroadcastRoster();

  /// DH key agreement with a holder (derives the paper's rJT seed).
  Status SendDhPublic(const std::string& holder);
  Status ReceiveDhPublicAndDerive(const std::string& holder);

  // -- Matrix collection (Fig. 11) -------------------------------------------
  // Every phase-4/5 message carries rows [row_begin, row_end) of one
  // attribute's payload — all of the owner's rows (tile_size 0) or one
  // row tile — so with tiling early tiles install while holders still
  // compute later ones, and peak memory per in-flight payload is
  // O(tile x row length). The final matrices do not depend on the ranges.
  //
  // A comparison round's collection is split in two: `CollectComparisonTile`
  // performs only the network receive (cheap — it is what must stay in
  // per-channel FIFO order) and stashes the raw payload;
  // `InstallComparisonTile` does the mask stripping / edit-distance work
  // and the block fill, which is order-free across (attribute, pair,
  // range) — that is where the schedule's phase-5 parallelism comes from.
  // The expected attribute, initiator and row range are known to the
  // schedule, so the install rejects a payload whose self-description
  // disagrees with the protocol position it arrived in.

  /// Receives one local-matrix range from `holder` and installs its rows on
  /// the diagonal block of the attribute matrix.
  Status ReceiveLocalMatrixTile(const std::string& holder);

  /// Receives the next comparison range of `responder` — the schedule says
  /// attribute `column`, `initiator`, rows from `row_begin` — and stashes
  /// it under that range key.
  Status CollectComparisonTile(size_t column, const std::string& initiator,
                               const std::string& responder,
                               uint64_t row_begin);

  /// Unmasks and installs the stashed comparison range for (`column`,
  /// `initiator`, `responder`, rows [row_begin, row_end)).
  Status InstallComparisonTile(size_t column, const std::string& initiator,
                               const std::string& responder,
                               uint64_t row_begin, uint64_t row_end);

  /// Object count of `holder` from the roster (available after
  /// ReceiveHellos; schedule drivers consult it to build tiled graphs and
  /// to close open row ranges).
  Result<uint64_t> RosterCount(const std::string& holder) const;

  /// The protocol configuration this party runs with.
  const ProtocolConfig& config() const { return config_; }

  /// Receives one holder's deterministic tokens for categorical attribute
  /// `column` (Sec. 4.3).
  Status ReceiveCategoricalTokens(const std::string& holder);

  /// Builds the global categorical matrix for `column` once every holder's
  /// tokens are in.
  Status FinalizeCategorical(size_t column);

  /// Normalizes every attribute matrix into [0, 1] (Fig. 11 step 4). Call
  /// once, after all collection steps.
  Status NormalizeMatrices();

  // -- Serving results -------------------------------------------------------

  /// Receives one clustering order from `holder`, runs the requested
  /// algorithm on the weighted merge of the attribute matrices, and sends
  /// back the published outcome.
  Status ServeClusterRequest(const std::string& holder);

  // -- Experiment introspection ---------------------------------------------
  // These cross the privacy boundary by design; they exist so tests and
  // benchmarks can compare against centralized computation. A deployment
  // would not expose them.

  /// The (normalized, if NormalizeMatrices ran) matrix of attribute `column`.
  Result<const DissimilarityMatrix*> AttributeMatrixForTesting(
      size_t column) const;

  /// The weighted merge the clustering step uses. Merges are cached per
  /// weight vector (every cluster request re-uses the merge for its
  /// weights), and the cache is invalidated whenever an attribute matrix
  /// changes — collection steps and (re-)normalization.
  Result<DissimilarityMatrix> MergedMatrix(std::vector<double> weights) const;

 private:
  struct RosterEntry {
    std::string holder;
    uint64_t count = 0;
    uint64_t offset = 0;
  };

  Result<const RosterEntry*> FindRosterEntry(const std::string& holder) const;
  Result<std::unique_ptr<Prng>> HolderPrng(const std::string& holder,
                                           const std::string& label) const;

  Status InstallNumericTilePayload(const std::string& payload,
                                   const std::string& responder, size_t column,
                                   const std::string& initiator,
                                   uint64_t row_begin, uint64_t row_end);
  Status InstallAlphanumericTilePayload(const std::string& payload,
                                        const std::string& responder,
                                        size_t column,
                                        const std::string& initiator,
                                        uint64_t row_begin, uint64_t row_end);

  /// Writes one recovered-distance block into attribute `column`'s global
  /// matrix: `distances` is `rows` x `cols`, its (m, n) landing at global
  /// pair (global_row_begin + m, initiator_offset + n). Real attributes are
  /// decoded through the fixed-point codec; the u64 -> double conversions
  /// run on the SIMD-dispatched row kernels.
  void FillNumericBlock(size_t column, size_t global_row_begin,
                        size_t initiator_offset,
                        const std::vector<uint64_t>& distances, size_t rows,
                        size_t cols);
  Result<ClusteringOutcome> RunClustering(const ClusterRequest& request);
  ObjectRef RefForGlobalIndex(size_t global_index) const;

  /// Cache-backed merge: returns a pointer into `merged_cache_`, computing
  /// the entry on first use for a weight vector. Entries stay valid until
  /// the next invalidation (the cache only ever grows between those).
  Result<const DissimilarityMatrix*> MergedMatrixRef(
      std::vector<double> weights) const;
  void InvalidateMergedCache();

  /// The one blocking receive of this party: `Receive` bound to the
  /// session's cancel token (see `BindCancelToken`).
  Result<Message> Recv(const std::string& from, const std::string& topic) {
    return network_->Receive(name_, from, topic, cancel_);
  }

  std::string name_;
  Network* network_;
  const CancelToken* cancel_ = nullptr;
  ProtocolConfig config_;
  Schema schema_;
  FixedPointCodec real_codec_;
  std::unique_ptr<Prng> entropy_;
  DiffieHellman::KeyPair dh_keys_;
  std::map<std::string, std::string> seeds_;  // holder -> rJT seed.
  std::vector<RosterEntry> roster_;
  size_t total_objects_ = 0;
  std::vector<DissimilarityMatrix> attribute_matrices_;
  // column -> per-roster-position token columns (nullopt until received).
  std::map<size_t, std::vector<std::optional<std::vector<std::string>>>>
      categorical_tokens_;
  // Same, for hierarchical categorical attributes (encrypted path tokens).
  std::map<size_t,
           std::vector<std::optional<std::vector<TaxonomyProtocol::TokenPath>>>>
      taxonomy_tokens_;
  bool normalized_ = false;
  // Weighted merges served so far, keyed by the request's weight vector
  // (node-based map: entry addresses survive later insertions).
  mutable Mutex merged_cache_mutex_;
  mutable std::map<std::vector<double>, DissimilarityMatrix> merged_cache_
      GUARDED_BY(merged_cache_mutex_);

  // Comparison payloads staged between CollectComparisonTile and
  // InstallComparisonTile, keyed by (column, initiator, responder,
  // row_begin). Collects on different channels run concurrently, hence the
  // mutex.
  mutable Mutex pending_mutex_;
  std::map<std::tuple<size_t, std::string, std::string, uint64_t>, std::string>
      pending_comparisons_ GUARDED_BY(pending_mutex_);
};

}  // namespace ppc

#endif  // PPC_CORE_THIRD_PARTY_H_
