// Experiment E9 — paper Sec. 4.2, "Analysis of communication costs":
//   initiator DHJ:  O(n^2 + n·p)        (local matrix + masked strings)
//   responder DHK:  O(m^2 + m·q·n·p)    (local matrix + intermediary CCMs)
//
// Sweeps both the number of strings and the string length; counters report
// the model payloads so the quadratic-in-everything responder cost — the
// dominant term the paper calls out — is visible in the output table.

#include <benchmark/benchmark.h>

#include "analysis/comm_model.h"
#include "core/alphanumeric_protocol.h"
#include "data/generators.h"
#include "rng/prng.h"

namespace ppc {
namespace {

std::vector<std::vector<uint8_t>> RandomStrings(size_t count, size_t length,
                                                uint64_t seed) {
  Alphabet dna = Alphabet::Dna();
  auto prng = MakePrng(PrngKind::kXoshiro256, seed);
  std::vector<std::vector<uint8_t>> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(
        dna.Encode(Generators::RandomString(length, dna, prng.get()))
            .TakeValue());
  }
  return out;
}

void BM_AlnumInitiatorMask(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t p = static_cast<size_t>(state.range(1));
  Alphabet dna = Alphabet::Dna();
  auto strings = RandomStrings(n, p, 1);
  auto rng_jt = MakePrng(PrngKind::kChaCha20, 2);
  for (auto _ : state) {
    auto masked =
        AlphanumericProtocol::MaskStrings(strings, dna, rng_jt.get());
    benchmark::DoNotOptimize(masked);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["p"] = static_cast<double>(p);
  state.counters["payload_B"] = static_cast<double>(
      CommModel::AlnumInitiatorPayload(std::vector<uint64_t>(n, p)));
  state.SetItemsProcessed(state.iterations() * n * p);
}
BENCHMARK(BM_AlnumInitiatorMask)
    ->ArgsProduct({{8, 32, 128, 512}, {16, 64, 256}});

void BM_AlnumResponderGrids(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t p = static_cast<size_t>(state.range(1));
  Alphabet dna = Alphabet::Dna();
  auto initiator = RandomStrings(n, p, 1);
  auto responder = RandomStrings(n, p, 3);
  auto rng_jt = MakePrng(PrngKind::kChaCha20, 2);
  auto masked = AlphanumericProtocol::MaskStrings(initiator, dna,
                                                  rng_jt.get())
                    .TakeValue();
  for (auto _ : state) {
    auto grids =
        AlphanumericProtocol::BuildMaskedGrids(responder, masked, dna);
    benchmark::DoNotOptimize(grids);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["p"] = static_cast<double>(p);
  state.counters["payload_B"] = static_cast<double>(
      CommModel::AlnumResponderTilePayload(std::vector<uint64_t>(n, p), 0, n,
                                           std::vector<uint64_t>(n, p), 1));
  state.SetItemsProcessed(state.iterations() * n * n * p * p);
}
BENCHMARK(BM_AlnumResponderGrids)->ArgsProduct({{4, 8, 16, 32}, {16, 64}});

void BM_AlnumThirdPartyDecode(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t p = static_cast<size_t>(state.range(1));
  Alphabet dna = Alphabet::Dna();
  auto initiator = RandomStrings(n, p, 1);
  auto responder = RandomStrings(n, p, 3);
  auto rng_jt_i = MakePrng(PrngKind::kChaCha20, 2);
  auto rng_jt_tp = MakePrng(PrngKind::kChaCha20, 2);
  auto masked = AlphanumericProtocol::MaskStrings(initiator, dna,
                                                  rng_jt_i.get())
                    .TakeValue();
  auto grids = AlphanumericProtocol::BuildMaskedGrids(responder, masked, dna);
  for (auto _ : state) {
    auto distances = AlphanumericProtocol::RecoverDistances(
        grids, n, n, dna, rng_jt_tp.get());
    benchmark::DoNotOptimize(distances);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["p"] = static_cast<double>(p);
  state.SetItemsProcessed(state.iterations() * n * n * p * p);
}
BENCHMARK(BM_AlnumThirdPartyDecode)->ArgsProduct({{4, 8, 16}, {16, 64}});

}  // namespace
}  // namespace ppc
