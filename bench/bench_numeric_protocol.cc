// Experiment E8 — paper Sec. 4.1, "Analysis of communication costs":
//   initiator DHJ:  O(n^2 + n)   (local matrix + masked vector)
//   responder DHK:  O(m^2 + m·n) (local matrix + comparison matrix)
//
// Each benchmark runs the protocol step over vectors of size n (= m) and
// reports the *measured* payload bytes next to the closed-form model as
// counters, so the shape of the cost curves can be read off directly.
// Per-pair masking (the frequency-attack mitigation) is benchmarked at the
// same sizes to show the O(n) -> O(n·m) initiator blow-up.

#include <benchmark/benchmark.h>

#include "analysis/comm_model.h"
#include "core/numeric_protocol.h"
#include "rng/distributions.h"
#include "rng/prng.h"

namespace ppc {
namespace {

std::vector<int64_t> RandomColumn(size_t n, uint64_t seed) {
  auto prng = MakePrng(PrngKind::kXoshiro256, seed);
  std::vector<int64_t> out(n);
  for (auto& v : out) {
    v = Distributions::UniformInt(prng.get(), -1000000, 1000000);
  }
  return out;
}

void BM_NumericInitiatorBatch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto values = RandomColumn(n, 1);
  auto rng_jt = MakePrng(PrngKind::kChaCha20, 2);
  auto rng_jk = MakePrng(PrngKind::kChaCha20, 3);
  for (auto _ : state) {
    auto masked = NumericProtocol::MaskVector(values, rng_jt.get(),
                                              rng_jk.get());
    benchmark::DoNotOptimize(masked);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["payload_B"] = static_cast<double>(
      CommModel::NumericInitiatorPayload(n));
  state.counters["localmat_B"] =
      static_cast<double>(CommModel::LocalMatrixTilePayload(0, n));
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NumericInitiatorBatch)->RangeMultiplier(4)->Range(16, 16384);

void BM_NumericInitiatorPerPair(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto values = RandomColumn(n, 1);
  auto rng_jt = MakePrng(PrngKind::kChaCha20, 2);
  auto rng_jk = MakePrng(PrngKind::kChaCha20, 3);
  for (auto _ : state) {
    auto masked = NumericProtocol::MaskMatrixPerPair(values, n, rng_jt.get(),
                                                     rng_jk.get());
    benchmark::DoNotOptimize(masked);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["payload_B"] = static_cast<double>(
      CommModel::NumericInitiatorTilePayload(n, 0, n));
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_NumericInitiatorPerPair)->RangeMultiplier(4)->Range(16, 1024);

void BM_NumericResponderBatch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto initiator = RandomColumn(n, 1);
  auto responder = RandomColumn(n, 4);
  auto rng_jt = MakePrng(PrngKind::kChaCha20, 2);
  auto rng_jk_i = MakePrng(PrngKind::kChaCha20, 3);
  auto rng_jk_r = MakePrng(PrngKind::kChaCha20, 3);
  auto masked =
      NumericProtocol::MaskVector(initiator, rng_jt.get(), rng_jk_i.get());
  for (auto _ : state) {
    auto comparison = NumericProtocol::BuildComparisonMatrix(
        responder, masked, rng_jk_r.get());
    benchmark::DoNotOptimize(comparison);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["payload_B"] = static_cast<double>(
      CommModel::NumericResponderTilePayload(n, 0, n, /*name_len=*/1));
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_NumericResponderBatch)->RangeMultiplier(4)->Range(16, 2048);

void BM_NumericThirdPartyRecover(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto initiator = RandomColumn(n, 1);
  auto responder = RandomColumn(n, 4);
  auto rng_jt_i = MakePrng(PrngKind::kChaCha20, 2);
  auto rng_jt_tp = MakePrng(PrngKind::kChaCha20, 2);
  auto rng_jk_i = MakePrng(PrngKind::kChaCha20, 3);
  auto rng_jk_r = MakePrng(PrngKind::kChaCha20, 3);
  auto masked =
      NumericProtocol::MaskVector(initiator, rng_jt_i.get(), rng_jk_i.get());
  auto comparison = NumericProtocol::BuildComparisonMatrix(responder, masked,
                                                           rng_jk_r.get());
  for (auto _ : state) {
    auto distances = NumericProtocol::RecoverDistances(comparison, n, n,
                                                       rng_jt_tp.get());
    benchmark::DoNotOptimize(distances);
  }
  state.counters["n"] = static_cast<double>(n);
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_NumericThirdPartyRecover)->RangeMultiplier(4)->Range(16, 2048);

// Full three-site exchange at one size, for the per-row of the E8 table.
void BM_NumericFullExchange(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto initiator = RandomColumn(n, 1);
  auto responder = RandomColumn(n, 4);
  for (auto _ : state) {
    auto rng_jt_i = MakePrng(PrngKind::kChaCha20, 2);
    auto rng_jt_tp = MakePrng(PrngKind::kChaCha20, 2);
    auto rng_jk_i = MakePrng(PrngKind::kChaCha20, 3);
    auto rng_jk_r = MakePrng(PrngKind::kChaCha20, 3);
    auto masked = NumericProtocol::MaskVector(initiator, rng_jt_i.get(),
                                              rng_jk_i.get());
    auto comparison = NumericProtocol::BuildComparisonMatrix(
        responder, masked, rng_jk_r.get());
    auto distances = NumericProtocol::RecoverDistances(comparison, n, n,
                                                       rng_jt_tp.get());
    benchmark::DoNotOptimize(distances);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["initiator_B"] = static_cast<double>(
      CommModel::NumericInitiatorPayload(n));
  state.counters["responder_B"] = static_cast<double>(
      CommModel::NumericResponderTilePayload(n, 0, n, 1));
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_NumericFullExchange)->RangeMultiplier(4)->Range(16, 1024);

}  // namespace
}  // namespace ppc
