// Row-kernel microbenchmarks: the scalar reference loops versus the AVX2
// paths of distance/kernels.h, pinned explicitly so both legs run on any
// machine that supports AVX2. These are the inner loops of the quadratic
// phases 4-5 — after PR 5 removed the per-frame crypto tax, the
// comparison/recover/dissimilarity sweeps became the dominant per-row
// cost, and the tiled pipeline multiplies them by every row of every
// holder pair. Acceptance gate for the kernel PR: the avx2 legs must run
// >= 2x the scalar legs.
//
// Both paths are bit-identical (tests/distance_kernels_test.cc); only
// wall-clock differs here.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <vector>

#include "distance/kernels.h"
#include "rng/prng.h"

namespace ppc {
namespace {

// The ctest env overrides must not leak in: PPC_FORCE_SCALAR_KERNELS
// would silently turn the avx2 legs scalar.
[[maybe_unused]] const bool kEnvCleared = [] {
  unsetenv("PPC_FORCE_SCALAR_KERNELS");
  return true;
}();

// Elements per row call. L1-resident (24 KB at 3 u64 streams) so the legs
// measure the kernel, not the cache hierarchy — at 4096 both paths go
// memory-bound and converge.
constexpr size_t kRow = 1024;

// Pins the requested kernel for one benchmark leg, skipping the leg
// cleanly when the CPU lacks AVX2. Returns false if skipped.
bool PinKernel(benchmark::State& state, DistanceKernels::Kernel kernel) {
  if (kernel == DistanceKernels::Kernel::kAvx2 &&
      !DistanceKernels::Avx2Supported()) {
    state.SkipWithError("AVX2 not supported on this CPU");
    return false;
  }
  if (!DistanceKernels::PinForTesting(kernel).ok()) {
    state.SkipWithError("failed to pin kernel");
    return false;
  }
  state.SetLabel(DistanceKernels::KernelToString(kernel));
  return true;
}

DistanceKernels::Kernel KernelArg(const benchmark::State& state) {
  return state.range(0) == 0 ? DistanceKernels::Kernel::kScalar
                             : DistanceKernels::Kernel::kAvx2;
}

std::vector<uint64_t> RandomU64Row(uint64_t seed, size_t n) {
  auto prng = MakePrng(PrngKind::kXoshiro256, seed);
  std::vector<uint64_t> row(n);
  for (uint64_t& v : row) v = prng->Next();
  return row;
}

void BM_AddSignedRow(benchmark::State& state) {
  if (!PinKernel(state, KernelArg(state))) return;
  std::vector<uint64_t> masked = RandomU64Row(1, kRow);
  std::vector<uint64_t> negate = RandomU64Row(2, kRow);
  for (uint64_t& v : negate) v = (v & 1) ? ~0ull : 0ull;
  std::vector<uint64_t> out(kRow);
  for (auto _ : state) {
    DistanceKernels::AddSignedRow(masked.data(), negate.data(),
                                  0x9e3779b97f4a7c15ull, out.data(), kRow);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * kRow * sizeof(uint64_t));
  DistanceKernels::ClearPinForTesting();
}
BENCHMARK(BM_AddSignedRow)->Arg(0)->Arg(1);

void BM_SubAbsRow(benchmark::State& state) {
  if (!PinKernel(state, KernelArg(state))) return;
  std::vector<uint64_t> cells = RandomU64Row(3, kRow);
  std::vector<uint64_t> masks = RandomU64Row(4, kRow);
  std::vector<uint64_t> out(kRow);
  for (auto _ : state) {
    DistanceKernels::SubAbsRow(cells.data(), masks.data(), out.data(), kRow);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * kRow * sizeof(uint64_t));
  DistanceKernels::ClearPinForTesting();
}
BENCHMARK(BM_SubAbsRow)->Arg(0)->Arg(1);

void BM_AbsDiffRow(benchmark::State& state) {
  if (!PinKernel(state, KernelArg(state))) return;
  std::vector<uint64_t> raw = RandomU64Row(5, kRow);
  std::vector<int64_t> values(kRow);
  for (size_t i = 0; i < kRow; ++i) {
    values[i] = static_cast<int64_t>(raw[i] >> 16);  // Stay far from 2^63.
  }
  std::vector<double> out(kRow);
  for (auto _ : state) {
    DistanceKernels::AbsDiffRow(123456789, values.data(), out.data(), kRow);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * kRow * sizeof(int64_t));
  DistanceKernels::ClearPinForTesting();
}
BENCHMARK(BM_AbsDiffRow)->Arg(0)->Arg(1);

void BM_AbsDiffScaledRow(benchmark::State& state) {
  if (!PinKernel(state, KernelArg(state))) return;
  std::vector<uint64_t> raw = RandomU64Row(6, kRow);
  std::vector<int64_t> values(kRow);
  for (size_t i = 0; i < kRow; ++i) {
    values[i] = static_cast<int64_t>(raw[i] >> 16);
  }
  std::vector<double> out(kRow);
  for (auto _ : state) {
    DistanceKernels::AbsDiffScaledRow(123456789, values.data(), 1e-6,
                                      out.data(), kRow);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * kRow * sizeof(int64_t));
  DistanceKernels::ClearPinForTesting();
}
BENCHMARK(BM_AbsDiffScaledRow)->Arg(0)->Arg(1);

void BM_U64ToDoubleRow(benchmark::State& state) {
  if (!PinKernel(state, KernelArg(state))) return;
  std::vector<uint64_t> in = RandomU64Row(7, kRow);
  std::vector<double> out(kRow);
  for (auto _ : state) {
    DistanceKernels::U64ToDoubleRow(in.data(), out.data(), kRow);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * kRow * sizeof(uint64_t));
  DistanceKernels::ClearPinForTesting();
}
BENCHMARK(BM_U64ToDoubleRow)->Arg(0)->Arg(1);

void BM_U64ToDoubleScaledRow(benchmark::State& state) {
  if (!PinKernel(state, KernelArg(state))) return;
  std::vector<uint64_t> in = RandomU64Row(8, kRow);
  std::vector<double> out(kRow);
  for (auto _ : state) {
    DistanceKernels::U64ToDoubleScaledRow(in.data(), 1e-6, out.data(), kRow);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * kRow * sizeof(uint64_t));
  DistanceKernels::ClearPinForTesting();
}
BENCHMARK(BM_U64ToDoubleScaledRow)->Arg(0)->Arg(1);

void BM_SubModRow(benchmark::State& state) {
  if (!PinKernel(state, KernelArg(state))) return;
  constexpr size_t kAlphabet = 26;
  std::vector<uint64_t> raw = RandomU64Row(9, kRow);
  std::vector<uint8_t> masked(kRow);
  for (size_t i = 0; i < kRow; ++i) {
    masked[i] = static_cast<uint8_t>(raw[i] % kAlphabet);
  }
  std::vector<uint8_t> out(kRow);
  for (auto _ : state) {
    DistanceKernels::SubModRow(masked.data(), 17, kAlphabet, out.data(),
                               kRow);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * kRow);
  DistanceKernels::ClearPinForTesting();
}
BENCHMARK(BM_SubModRow)->Arg(0)->Arg(1);

void BM_NotEqualRow(benchmark::State& state) {
  if (!PinKernel(state, KernelArg(state))) return;
  constexpr size_t kAlphabet = 26;
  std::vector<uint64_t> raw_c = RandomU64Row(10, kRow);
  std::vector<uint64_t> raw_m = RandomU64Row(11, kRow);
  std::vector<uint8_t> cells(kRow), masks(kRow);
  for (size_t i = 0; i < kRow; ++i) {
    cells[i] = static_cast<uint8_t>(raw_c[i] % kAlphabet);
    masks[i] = static_cast<uint8_t>(raw_m[i] % kAlphabet);
  }
  std::vector<uint8_t> out(kRow);
  for (auto _ : state) {
    DistanceKernels::NotEqualRow(cells.data(), masks.data(), out.data(),
                                 kRow);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * kRow);
  DistanceKernels::ClearPinForTesting();
}
BENCHMARK(BM_NotEqualRow)->Arg(0)->Arg(1);

}  // namespace
}  // namespace ppc
