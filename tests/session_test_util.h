#ifndef PPC_TESTS_SESSION_TEST_UTIL_H_
#define PPC_TESTS_SESSION_TEST_UTIL_H_

// Shared helpers for integration tests and benchmarks: stand up a network,
// k data holders and a third party over given horizontal partitions, and
// run the full session.

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/fixed_point.h"
#include "common/string_util.h"
#include "core/config.h"
#include "core/data_holder.h"
#include "core/session.h"
#include "core/third_party.h"
#include "data/partition.h"
#include "distance/comparators.h"
#include "net/faulty_network.h"
#include "net/in_memory_network.h"

namespace ppc {
namespace testutil {

/// Owns every party of a protocol run.
struct SessionFixture {
  std::unique_ptr<InMemoryNetwork> network;
  /// Set iff PPC_CHAOS_PROFILE wrapped the transport: the parties then
  /// talk to this seeded fault injector instead of `network` directly
  /// (which tests may still poke for taps/stats — the wrapper forwards).
  std::unique_ptr<FaultyNetwork> chaos;
  std::unique_ptr<ThirdParty> third_party;
  std::vector<std::unique_ptr<DataHolder>> holders;
  std::unique_ptr<ClusteringSession> session;

  /// The transport the parties were built over (the chaos wrapper when
  /// one is active, the bare in-memory network otherwise).
  Network* wire() const {
    return chaos != nullptr ? static_cast<Network*>(chaos.get())
                            : static_cast<Network*>(network.get());
  }

  /// Names are "A", "B", "C", ... in party order; the TP is "TP".
  static std::string HolderName(size_t index) {
    return std::string(1, static_cast<char>('A' + index));
  }
};

/// Thread-count override for whole-suite concurrency runs: when
/// PPC_NUM_THREADS is set (the CI threaded job exports it), every fixture
/// whose test did not pick an explicit thread count runs the concurrent
/// engine with that many workers. Parallel runs are bit-identical to
/// sequential ones, so the suite's assertions hold unchanged.
inline size_t ThreadsFromEnv() {
  const char* env = std::getenv("PPC_NUM_THREADS");
  if (env == nullptr) return 0;
  int64_t value = 0;
  if (!ParseInt64(env, &value) || value < 1) return 0;
  return static_cast<size_t>(value);
}

/// Schedule-granularity override, same idea: PPC_SCHEDULE=fine|grouped
/// (the CI matrix legs export it) picks the concurrent executor's graph
/// for every fixture. Either graph is bit-identical to sequential, so all
/// assertions hold unchanged.
inline ScheduleGranularity ScheduleFromEnv(ScheduleGranularity fallback) {
  const char* env = std::getenv("PPC_SCHEDULE");
  if (env == nullptr) return fallback;
  if (std::string(env) == "grouped") return ScheduleGranularity::kGrouped;
  if (std::string(env) == "fine") return ScheduleGranularity::kFine;
  return fallback;
}

/// Tile-size override, same idea: PPC_TILE_SIZE=N (the CI tiled leg
/// exports it) makes every fixture whose test did not pick an explicit
/// tile size run its phase-4/5 rounds as N-row tiles instead of one range
/// per holder. Results are bit-identical at every tile size, so the
/// suite's assertions hold unchanged.
inline size_t TileSizeFromEnv() {
  const char* env = std::getenv("PPC_TILE_SIZE");
  if (env == nullptr) return 0;
  int64_t value = 0;
  if (!ParseInt64(env, &value) || value < 1) return 0;
  return static_cast<size_t>(value);
}

/// Chaos override: PPC_CHAOS_PROFILE=lossy-wan (the CI chaos leg exports
/// it) wraps every fixture's transport in a seeded `FaultyNetwork`, so
/// whole suites re-run under injected faults without code changes. Only
/// completion-preserving profiles make sense here (lossy-wan only delays
/// frames, so every assertion holds unchanged); destructive profiles
/// belong to the dedicated chaos suites, which build their own wrappers.
/// Returns nullptr (no wrapping) when unset or "none".
inline const char* ChaosProfileFromEnv() {
  const char* env = std::getenv("PPC_CHAOS_PROFILE");
  if (env == nullptr || *env == '\0' || std::string(env) == "none") {
    return nullptr;
  }
  return env;
}

/// Seed of the env-selected chaos schedule: PPC_CHAOS_SEED=N (default 1).
/// A failing run replays exactly from its (profile, seed) pair.
inline uint64_t ChaosSeedFromEnv() {
  const char* env = std::getenv("PPC_CHAOS_SEED");
  if (env == nullptr) return 1;
  int64_t value = 0;
  if (!ParseInt64(env, &value) || value < 0) return 1;
  return static_cast<uint64_t>(value);
}

/// Builds (but does not run) a session over `partitions`.
inline Result<SessionFixture> MakeSession(
    const Schema& schema, const std::vector<DataMatrix>& partitions,
    const ProtocolConfig& config,
    TransportSecurity security = TransportSecurity::kAuthenticatedEncryption,
    uint64_t entropy_base = 9000) {
  ProtocolConfig effective = config;
  if (effective.num_threads <= 1) {
    if (size_t env_threads = ThreadsFromEnv(); env_threads > 0) {
      effective.num_threads = env_threads;
    }
  }
  if (effective.schedule_granularity == ScheduleGranularity::kFine) {
    // Like the thread override: defer to a test's explicit non-default
    // choice (a grouped-pinning test must stay grouped under the fine
    // CI leg).
    effective.schedule_granularity =
        ScheduleFromEnv(effective.schedule_granularity);
  }
  if (effective.tile_size == 0) {
    if (size_t env_tile = TileSizeFromEnv(); env_tile > 0) {
      effective.tile_size = env_tile;
    }
  }
  SessionFixture fixture;
  fixture.network = std::make_unique<InMemoryNetwork>(security);
  if (const char* profile_name = ChaosProfileFromEnv()) {
    auto profile = FaultProfileFromName(profile_name);
    if (!profile.ok()) return profile.status();
    fixture.chaos = std::make_unique<FaultyNetwork>(
        fixture.network.get(), *profile, ChaosSeedFromEnv());
  }
  Network* wire = fixture.wire();
  fixture.third_party = std::make_unique<ThirdParty>(
      "TP", wire, effective, schema, entropy_base);
  fixture.session =
      std::make_unique<ClusteringSession>(wire, effective, schema);
  PPC_RETURN_IF_ERROR(fixture.session->SetThirdParty(fixture.third_party.get()));
  for (size_t i = 0; i < partitions.size(); ++i) {
    auto holder = std::make_unique<DataHolder>(
        SessionFixture::HolderName(i), wire, effective,
        entropy_base + 1 + i);
    PPC_RETURN_IF_ERROR(holder->SetData(partitions[i]));
    PPC_RETURN_IF_ERROR(fixture.session->AddDataHolder(holder.get()));
    fixture.holders.push_back(std::move(holder));
  }
  return fixture;
}

/// The centralized reference: per-attribute matrices over the
/// concatenation of all partitions (pooled data, no protocol), normalized
/// like the third party does.
inline std::vector<DissimilarityMatrix> CentralizedReference(
    const std::vector<LabeledDataset>& parts, const ProtocolConfig& config) {
  LabeledDataset merged = Partitioner::Concatenate(parts).TakeValue();
  FixedPointCodec codec =
      FixedPointCodec::Create(config.real_decimal_digits).TakeValue();
  auto matrices = LocalDissimilarity::BuildAll(merged.data, codec).TakeValue();
  for (auto& matrix : matrices) matrix.Normalize();
  return matrices;
}

/// Extracts the data matrices from labeled partitions.
inline std::vector<DataMatrix> MatricesOf(
    const std::vector<LabeledDataset>& parts) {
  std::vector<DataMatrix> out;
  out.reserve(parts.size());
  for (const LabeledDataset& part : parts) out.push_back(part.data);
  return out;
}

}  // namespace testutil
}  // namespace ppc

#endif  // PPC_TESTS_SESSION_TEST_UTIL_H_
