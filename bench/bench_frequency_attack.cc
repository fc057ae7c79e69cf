// Experiment E11 — the Sec. 4.1 frequency-analysis ablation: how much does
// the third party learn from the comparison matrix, as a function of the
// masking mode and the (public) attribute range?
//
// Counters per row:
//   recovery    — fraction of pairwise differences of DHK's column the TP
//                 recovers (1.0 under batch masking, ~0.5 chance level
//                 under per-pair masking),
//   candidates  — number of value vectors consistent with the recovered
//                 differences and the range (small = near-total breach),
//   feasible    — 1 iff the true vector is among the candidates,
//   extra_bytes — the price of the per-pair defence in initiator payload.

#include <benchmark/benchmark.h>

#include "analysis/comm_model.h"
#include "analysis/frequency_attack.h"
#include "core/numeric_protocol.h"
#include "rng/distributions.h"
#include "rng/prng.h"

namespace ppc {
namespace {

void RunAttackBenchmark(benchmark::State& state, MaskingMode mode) {
  const size_t m = static_cast<size_t>(state.range(0));  // Victim column.
  const int64_t range_hi = state.range(1);
  const size_t n = 8;

  auto data_rng = MakePrng(PrngKind::kXoshiro256, 7);
  std::vector<int64_t> x(n), y(m);
  for (auto& v : x) v = Distributions::UniformInt(data_rng.get(), 0, range_hi);
  for (auto& v : y) v = Distributions::UniformInt(data_rng.get(), 0, range_hi);

  auto jk_i = MakePrng(PrngKind::kChaCha20, 1);
  auto jk_r = MakePrng(PrngKind::kChaCha20, 1);
  auto jt_i = MakePrng(PrngKind::kChaCha20, 2);
  auto jt_tp = MakePrng(PrngKind::kChaCha20, 2);

  std::vector<uint64_t> comparison;
  if (mode == MaskingMode::kBatch) {
    auto masked = NumericProtocol::MaskVector(x, jt_i.get(), jk_i.get());
    comparison = NumericProtocol::BuildComparisonMatrix(y, masked, jk_r.get());
  } else {
    auto masked =
        NumericProtocol::MaskMatrixPerPair(x, m, jt_i.get(), jk_i.get());
    comparison =
        NumericProtocol::AddResponderPerPair(y, n, masked, jk_r.get())
            .TakeValue();
  }

  FrequencyAttack::Outcome outcome;
  for (auto _ : state) {
    outcome = FrequencyAttack::Run(comparison, m, n, jt_tp.get(), mode, 0,
                                   range_hi, y)
                  .TakeValue();
    benchmark::DoNotOptimize(outcome);
  }
  state.counters["m"] = static_cast<double>(m);
  state.counters["range"] = static_cast<double>(range_hi);
  state.counters["recovery"] = outcome.difference_recovery_rate;
  state.counters["candidates"] =
      static_cast<double>(outcome.feasible_candidates);
  state.counters["feasible"] = outcome.true_vector_feasible ? 1.0 : 0.0;
  state.counters["extra_bytes"] = static_cast<double>(
      CommModel::NumericInitiatorTilePayload(n, 0, m) -
      CommModel::NumericInitiatorPayload(n));
}

void BM_FrequencyAttackBatch(benchmark::State& state) {
  RunAttackBenchmark(state, MaskingMode::kBatch);
}
BENCHMARK(BM_FrequencyAttackBatch)
    ->ArgsProduct({{8, 32, 128}, {10, 100, 10000}});

void BM_FrequencyAttackPerPair(benchmark::State& state) {
  RunAttackBenchmark(state, MaskingMode::kPerPair);
}
BENCHMARK(BM_FrequencyAttackPerPair)
    ->ArgsProduct({{8, 32, 128}, {10, 100, 10000}});

}  // namespace
}  // namespace ppc
