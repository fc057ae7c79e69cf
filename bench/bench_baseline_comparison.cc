// Experiment E13 — the feasibility gap the paper cites as motivation: the
// masking protocols versus Paillier-based homomorphic equivalents (the
// stand-in for Atallah et al. [8] secure sequence comparison).
//
// Counters per row:
//   wire_B      — bytes the initiator ships,
//   ratio_vs_mask — that traffic divided by the masking protocol's.
//
// Expected shape (paper's claim): the masking protocol wins by orders of
// magnitude in both time and bytes, and the string baseline is the worst by
// an additional factor |alphabet|.

#include <benchmark/benchmark.h>

#include "analysis/comm_model.h"
#include "core/alphanumeric_protocol.h"
#include "core/baselines.h"
#include "core/numeric_protocol.h"
#include "data/generators.h"
#include "rng/distributions.h"
#include "rng/prng.h"

namespace ppc {
namespace {

constexpr size_t kPaillierBits = 1024;

std::vector<int64_t> RandomColumn(size_t n, uint64_t seed) {
  auto prng = MakePrng(PrngKind::kXoshiro256, seed);
  std::vector<int64_t> out(n);
  for (auto& v : out) {
    v = Distributions::UniformInt(prng.get(), -100000, 100000);
  }
  return out;
}

const PaillierKeyPair& SharedKeys() {
  static const PaillierKeyPair keys = [] {
    auto rng = MakePrng(PrngKind::kChaCha20, 99);
    return GeneratePaillierKeyPair(kPaillierBits, rng.get()).TakeValue();
  }();
  return keys;
}

// ---------------------------------------------------------------- numeric --

void BM_MaskingNumericExchange(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto x = RandomColumn(n, 1);
  auto y = RandomColumn(n, 2);
  for (auto _ : state) {
    auto jt_i = MakePrng(PrngKind::kChaCha20, 3);
    auto jt_tp = MakePrng(PrngKind::kChaCha20, 3);
    auto jk_i = MakePrng(PrngKind::kChaCha20, 4);
    auto jk_r = MakePrng(PrngKind::kChaCha20, 4);
    auto masked = NumericProtocol::MaskVector(x, jt_i.get(), jk_i.get());
    auto comparison =
        NumericProtocol::BuildComparisonMatrix(y, masked, jk_r.get());
    auto distances =
        NumericProtocol::RecoverDistances(comparison, n, n, jt_tp.get());
    benchmark::DoNotOptimize(distances);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["wire_B"] = static_cast<double>(
      CommModel::NumericInitiatorPayload(n));
  state.counters["ratio_vs_mask"] = 1.0;
}
BENCHMARK(BM_MaskingNumericExchange)->Arg(8)->Arg(32)->Arg(128);

void BM_PaillierNumericExchange(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto x = RandomColumn(n, 1);
  auto y = RandomColumn(n, 2);
  const PaillierKeyPair& keys = SharedKeys();
  auto blinding = MakePrng(PrngKind::kChaCha20, 5);
  uint64_t wire_bytes = 0;
  for (auto _ : state) {
    auto jk_i = MakePrng(PrngKind::kChaCha20, 4);
    auto jk_r = MakePrng(PrngKind::kChaCha20, 4);
    auto cipher = PaillierNumericBaseline::EncryptInitiator(
        x, keys.public_key, jk_i.get(), blinding.get());
    wire_bytes = PaillierNumericBaseline::WireBytes(cipher, keys.public_key);
    auto matrix = PaillierNumericBaseline::AddResponder(
        y, cipher, keys.public_key, jk_r.get(), blinding.get());
    auto distances =
        PaillierNumericBaseline::Decrypt(matrix, n, n, keys.private_key);
    benchmark::DoNotOptimize(distances);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["wire_B"] = static_cast<double>(wire_bytes);
  state.counters["ratio_vs_mask"] =
      static_cast<double>(wire_bytes) /
      static_cast<double>(
          CommModel::NumericInitiatorPayload(n));
}
BENCHMARK(BM_PaillierNumericExchange)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

// ----------------------------------------------------------------- string --

void BM_MaskingCcmExchange(benchmark::State& state) {
  const size_t p = static_cast<size_t>(state.range(0));
  Alphabet dna = Alphabet::Dna();
  auto prng = MakePrng(PrngKind::kXoshiro256, 6);
  auto s = dna.Encode(Generators::RandomString(p, dna, prng.get())).TakeValue();
  auto t = dna.Encode(Generators::RandomString(p, dna, prng.get())).TakeValue();
  for (auto _ : state) {
    auto jt_i = MakePrng(PrngKind::kChaCha20, 7);
    auto jt_tp = MakePrng(PrngKind::kChaCha20, 7);
    auto masked =
        AlphanumericProtocol::MaskStrings({s}, dna, jt_i.get()).TakeValue();
    auto grids = AlphanumericProtocol::BuildMaskedGrids({t}, masked, dna);
    auto distances = AlphanumericProtocol::RecoverDistances(grids, 1, 1, dna,
                                                            jt_tp.get());
    benchmark::DoNotOptimize(distances);
  }
  state.counters["p"] = static_cast<double>(p);
  state.counters["wire_B"] =
      static_cast<double>(CommModel::AlnumInitiatorPayload({p}));
  state.counters["ratio_vs_mask"] = 1.0;
}
BENCHMARK(BM_MaskingCcmExchange)->Arg(8)->Arg(16)->Arg(32);

void BM_HomomorphicCcmExchange(benchmark::State& state) {
  const size_t p = static_cast<size_t>(state.range(0));
  Alphabet dna = Alphabet::Dna();
  auto prng = MakePrng(PrngKind::kXoshiro256, 6);
  auto s = dna.Encode(Generators::RandomString(p, dna, prng.get())).TakeValue();
  auto t = dna.Encode(Generators::RandomString(p, dna, prng.get())).TakeValue();
  const PaillierKeyPair& keys = SharedKeys();
  auto blinding = MakePrng(PrngKind::kChaCha20, 8);
  for (auto _ : state) {
    auto distance =
        HomomorphicCcmBaseline::Distance(s, t, dna, keys, blinding.get());
    benchmark::DoNotOptimize(distance);
  }
  uint64_t wire = static_cast<uint64_t>(p) * dna.size() *
                  keys.public_key.CiphertextBytes();
  state.counters["p"] = static_cast<double>(p);
  state.counters["wire_B"] = static_cast<double>(wire);
  state.counters["ratio_vs_mask"] =
      static_cast<double>(wire) /
      static_cast<double>(CommModel::AlnumInitiatorPayload({p}));
  state.SetLabel("Atallah-style stand-in");
}
BENCHMARK(BM_HomomorphicCcmExchange)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ppc
