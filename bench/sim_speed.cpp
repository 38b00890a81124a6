// Microbenchmark M2: host-side simulator throughput (simulated cycles per
// wall second).
//
// Five angles on the hot path:
//  * BM_KernelMatrixLaec        — program mode, clean run (the devirtualized
//                                 fast path end to end);
//  * BM_KernelMatrixLaecInject  — program mode under an adjacent-MBU storm
//                                 (every access may take the cold
//                                 handle-error path: injection, decode,
//                                 scrub, refetch recovery);
//  * BM_KernelMatrixSelfCheck   — program mode plus the architectural
//                                 self-check readback (flush + final-memory
//                                 comparison, the sweep runner's per-point
//                                 shape);
//  * BM_SyntheticTraceLaec      — trace (oracle) mode;
//  * BM_FullSuiteCharacterization — all 16 kernels, calibrated traces.
//
// The committed BENCH_sim_speed.json tracks these numbers per PR
// (baseline vs refactor); CI's perf-smoke job re-runs them on every push.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "ecc/registry.hpp"

namespace {

using namespace laec;

// Codec-level decode throughput: the syndrome-LUT line decode against the
// per-word virtual matrix decode (the two paths a cache takes for a codec
// with and without a LUT). A quarter of the words carry a random
// error syndrome so both correction and the clean path are exercised.
// Counter is words decoded per second. arg 0 = LUT, 1 = matrix.
void BM_DecodeLineThroughput(benchmark::State& state,
                             const std::string& codec_key) {
  const auto codec = ecc::make_codec(codec_key);
  constexpr std::size_t kWords = 4096;
  std::vector<u32> data(kWords);
  std::vector<u16> check(kWords);
  std::vector<u32> out(kWords);
  Rng rng(0xbe9c4ull);
  const u64 cmask = (u64{1} << codec->check_bits()) - 1;
  for (std::size_t i = 0; i < kWords; ++i) {
    data[i] = static_cast<u32>(rng.next_u64());
    u64 s = 0;
    if (i % 4 == 0) s = rng.next_u64() & cmask;
    check[i] = static_cast<u16>((codec->encode(data[i]) ^ s) & cmask);
  }
  const bool matrix = state.range(0) != 0;
  u64 words = 0;
  for (auto _ : state) {
    if (matrix) {
      for (std::size_t i = 0; i < kWords; ++i) {
        const auto r = codec->decode(data[i], check[i]);
        out[i] = ecc::is_corrected(r.status) ? static_cast<u32>(r.data)
                                             : data[i];
      }
    } else {
      codec->decode_line(data.data(), check.data(), out.data(), kWords);
    }
    words += kWords;
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["words_per_s"] = benchmark::Counter(
      static_cast<double>(words), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_DecodeLineThroughput, secded_39_32, "secded-39-32")
    ->Arg(0)
    ->Arg(1)
    ->ArgName("matrix_decode");
BENCHMARK_CAPTURE(BM_DecodeLineThroughput, dec_bch_45_32, "dec-bch-45-32")
    ->Arg(0)
    ->Arg(1)
    ->ArgName("matrix_decode");

void BM_KernelMatrixLaec(benchmark::State& state) {
  const auto built = workloads::kernel_by_name("matrix").build();
  u64 cycles = 0;
  for (auto _ : state) {
    auto cfg = bench::config_for(cpu::EccPolicy::kLaec);
    const auto s = core::run_program(cfg, built.program);
    cycles += s.cycles;
    benchmark::DoNotOptimize(s.cycles);
  }
  state.counters["sim_cycles_per_s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KernelMatrixLaec)->Unit(benchmark::kMillisecond);

// Injection-heavy configuration: the slow path is what is being measured.
// Rates are far above any physical storm so that a meaningful fraction of
// accesses take the cold path (injection RNG, full decode, scrubbing, and
// the occasional invalidate-and-refetch recovery).
void BM_KernelMatrixLaecInject(benchmark::State& state) {
  const auto built = workloads::kernel_by_name("matrix").build();
  u64 cycles = 0;
  u64 ecc_events = 0;
  for (auto _ : state) {
    auto cfg = bench::config_for(cpu::EccPolicy::kLaec);
    cfg.faults.emplace();
    cfg.faults->single_flip_prob = 0.01;
    cfg.faults->double_flip_prob = 0.005;
    cfg.faults->adjacent_doubles = true;
    const auto s = core::run_program(cfg, built.program);
    cycles += s.cycles;
    ecc_events += s.ecc_corrected + s.ecc_detected_uncorrectable;
    benchmark::DoNotOptimize(s.cycles);
  }
  state.counters["sim_cycles_per_s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["ecc_events_per_iter"] = benchmark::Counter(
      static_cast<double>(ecc_events), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_KernelMatrixLaecInject)->Unit(benchmark::kMillisecond);

// The same storm under the widest registered code (DEC BCH (45,32),
// r=13): every cold decode is one 8K-entry syndrome-table load.
void BM_KernelMatrixBchInject(benchmark::State& state) {
  const auto built = workloads::kernel_by_name("matrix").build();
  u64 cycles = 0;
  for (auto _ : state) {
    core::SimConfig cfg;
    cfg.set_scheme("dec-bch-45-32");
    cfg.faults.emplace();
    cfg.faults->single_flip_prob = 0.01;
    cfg.faults->double_flip_prob = 0.005;
    cfg.faults->adjacent_doubles = true;
    const auto s = core::run_program(cfg, built.program);
    cycles += s.cycles;
    benchmark::DoNotOptimize(s.cycles);
  }
  state.counters["sim_cycles_per_s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KernelMatrixBchInject)->Unit(benchmark::kMillisecond);

// The sweep runner's per-point shape: simulate, then verify every
// architecturally-final word against the kernel's reference model (which
// flushes the whole hierarchy into memory first).
void BM_KernelMatrixSelfCheck(benchmark::State& state) {
  const auto built = workloads::kernel_by_name("matrix").build();
  u64 cycles = 0;
  for (auto _ : state) {
    auto cfg = bench::config_for(cpu::EccPolicy::kLaec);
    auto run = core::run_program_keep_system(cfg, built.program);
    bool ok = true;
    for (const auto& [addr, expect] : built.expected) {
      ok = ok && run.system->read_word_final(addr) == expect;
    }
    if (!ok) state.SkipWithError("self-check failed");
    cycles += run.stats.cycles;
    benchmark::DoNotOptimize(ok);
  }
  state.counters["sim_cycles_per_s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KernelMatrixSelfCheck)->Unit(benchmark::kMillisecond);

void BM_SyntheticTraceLaec(benchmark::State& state) {
  const auto& k = workloads::kernel_by_name("a2time");
  u64 cycles = 0;
  for (auto _ : state) {
    const auto s = bench::run_calibrated(k, cpu::EccPolicy::kLaec, 50'000);
    cycles += s.cycles;
    benchmark::DoNotOptimize(s.cycles);
  }
  state.counters["sim_cycles_per_s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SyntheticTraceLaec)->Unit(benchmark::kMillisecond);

void BM_FullSuiteCharacterization(benchmark::State& state) {
  u64 cycles = 0;
  for (auto _ : state) {
    u64 total = 0;
    for (const auto& k : workloads::eembc_kernels()) {
      total += bench::run_calibrated(k, cpu::EccPolicy::kNoEcc, 10'000).cycles;
    }
    cycles += total;
    benchmark::DoNotOptimize(total);
  }
  state.counters["sim_cycles_per_s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullSuiteCharacterization)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
