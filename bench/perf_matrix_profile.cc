// Performance benchmarks for the matrix-profile substrate: one
// subsequence's distance profile and the MPX joins. Establishes that
// the substrate scales as published (n m per distance profile, n^2 for
// the self-join).
//
// Before the google-benchmark suites run, main() times the MPX
// self-join single-threaded at every ISA tier the host supports, the
// AB-join and left profile, MerlinSweep on a random walk
// (merlin_pan_ms) and on white noise, its worst case
// (merlin_noise_sweep_ms), and the parallel layer's scaling, and
// writes the results to
// BENCH_perf_matrix_profile.json — the machine-readable record CI
// archives. Flags: --threads N, --mp-isa T, --smoke (tiny run for the
// perf_smoke ctest label; writes no JSON — but still sweeps every
// supported ISA tier, so the smoke label exercises each variant).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <limits>

#include "bench_util.h"
#include "common/cpu_features.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/series.h"
#include "detectors/merlin.h"
#include "substrates/matrix_profile.h"
#include "substrates/sliding_window.h"

namespace {

tsad::Series WhiteNoise(std::size_t n, uint64_t seed) {
  tsad::Rng rng(seed);
  tsad::Series x(n);
  for (double& v : x) v = rng.Gaussian();
  return x;
}

tsad::Series RandomWalk(std::size_t n, uint64_t seed) {
  tsad::Rng rng(seed);
  tsad::Series x(n);
  double v = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    v += rng.Gaussian();
    x[i] = v;
  }
  return x;
}

void BM_DistanceProfile(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const tsad::Series x = RandomWalk(n, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsad::DistanceProfile(x, n / 2, 128));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_DistanceProfile)->Range(1 << 10, 1 << 16)->Complexity();

void BM_MpxMatrixProfile(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const tsad::Series x = RandomWalk(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsad::ComputeMatrixProfile(x, 64));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_MpxMatrixProfile)->Range(1 << 10, 1 << 13)->Complexity();

void BM_WindowStats(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const tsad::Series x = RandomWalk(n, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsad::ComputeWindowStats(x, 128));
  }
}
BENCHMARK(BM_WindowStats)->Range(1 << 12, 1 << 18);

// Best-of-2 wall time of one profile computation, in milliseconds.
template <typename Fn>
double TimeMs(const tsad::Series& x, Fn&& compute) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 2; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(compute(x));
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  tsad::bench::InitThreadsFromArgs(&argc, argv);
  tsad::bench::InitMpIsaFromArgs(&argc, argv);
  const bool smoke = tsad::bench::ConsumeFlag(&argc, argv, "--smoke");
  const std::size_t threads = tsad::ParallelThreads();
  // Series size: 2^14 by default; TSAD_PERF_MP_N overrides (the
  // EXPERIMENTS.md n=65536 row is produced that way); --smoke forces a
  // tiny run that only proves the bench executes (the perf_smoke ctest
  // label) and therefore writes no JSON.
  std::size_t n = smoke ? (1 << 11) : (1 << 14);
  if (!smoke) {
    if (const char* env = std::getenv("TSAD_PERF_MP_N")) {
      const std::size_t env_n = std::strtoull(env, nullptr, 10);
      if (env_n > 0) n = env_n;
    }
  }
  const tsad::Series x = RandomWalk(n, 2);
  const auto self_join = [](const tsad::Series& s) {
    return tsad::ComputeMatrixProfile(s, 64);
  };

  // Single-threaded legs, so each number isolates the kernel.
  tsad::SetParallelThreads(1);
  const double mpx_ms = TimeMs(x, self_join);
  const tsad::SimdTier active_tier = tsad::ActiveSimdTier();
  std::printf("matrix profile n=%zu [isa %s]: mpx serial %.1f ms\n", n,
              tsad::SimdTierName(active_tier), mpx_ms);

  std::vector<std::pair<std::string, double>> fields = {
      {"threads", static_cast<double>(threads)}, {"mpx_ms", mpx_ms}};
  const std::vector<std::pair<std::string, std::string>> text_fields = {
      {"mp_isa", tsad::SimdTierName(active_tier)},
      {"mp_isa_detected", tsad::SimdTierName(tsad::DetectSimdTier())}};

  // Per-ISA-tier sweep: force each tier the host supports and time the
  // self-join, so one JSON records the whole dispatch ladder (the gap
  // between adjacent tiers is that tier's win). The active tier is
  // restored afterwards for the other legs and the google-benchmark
  // suites.
  for (int t = 0; t <= static_cast<int>(tsad::DetectSimdTier()); ++t) {
    const tsad::SimdTier tier = static_cast<tsad::SimdTier>(t);
    if (!tsad::SetSimdTierOverride(tier).ok()) continue;
    const std::string name = tsad::SimdTierName(tier);
    const double tier_mpx_ms = TimeMs(x, self_join);
    std::printf("  isa %-6s: mpx %.1f ms\n", name.c_str(), tier_mpx_ms);
    fields.push_back({"mpx_" + name + "_ms", tier_mpx_ms});
  }
  if (!tsad::SetSimdTierOverride(active_tier).ok()) {
    tsad::ClearSimdTierOverride();  // unreachable: active is supported
  }

  // Join and left-profile legs (single-threaded, still): the two other
  // profile shapes. The AB-join splits the walk in half (query vs
  // reference — no exclusion zone); the left profile runs on the full
  // series.
  const tsad::Series query_half(
      x.begin(), x.begin() + static_cast<std::ptrdiff_t>(x.size() / 2));
  const tsad::Series ref_half(
      x.begin() + static_cast<std::ptrdiff_t>(x.size() / 2), x.end());
  const double ab_mpx_ms = TimeMs(x, [&](const tsad::Series&) {
    return tsad::ComputeAbJoin(query_half, ref_half, 64);
  });
  const double left_mpx_ms = TimeMs(x, [](const tsad::Series& s) {
    return tsad::ComputeLeftMatrixProfile(s, 64);
  });
  std::printf("ab-join n=%zu x %zu: mpx %.1f ms\n", query_half.size(),
              ref_half.size(), ab_mpx_ms);
  std::printf("left profile n=%zu: mpx %.1f ms\n", n, left_mpx_ms);
  fields.push_back({"ab_mpx_ms", ab_mpx_ms});
  fields.push_back({"left_mpx_ms", left_mpx_ms});

  // MERLIN legs: MerlinSweep over the registry's default length range,
  // on the walk and on white noise of the same size. Noise is the
  // search's worst case — no subsequence resembles another, so carried
  // neighbours go stale and refinement runs the most rows. Capped at
  // 16384 points, so the MERLIN fields time the same input whatever
  // TSAD_PERF_MP_N is.
  const std::size_t n_merlin = std::min<std::size_t>(n, 1 << 14);
  const tsad::Series x_merlin(
      x.begin(), x.begin() + static_cast<std::ptrdiff_t>(n_merlin));
  const tsad::Series noise_merlin = WhiteNoise(n_merlin, 3);
  const std::size_t merlin_min = smoke ? 24 : 48;
  const std::size_t merlin_max = smoke ? 40 : 96;
  const auto sweep = [&](const tsad::Series& s) {
    return tsad::MerlinSweep(s, merlin_min, merlin_max);
  };
  const double merlin_pan_ms = TimeMs(x_merlin, sweep);
  const double merlin_noise_sweep_ms = TimeMs(noise_merlin, sweep);
  std::printf("merlin n=%zu m=[%zu, %zu]: sweep %.1f ms\n", n_merlin,
              merlin_min, merlin_max, merlin_pan_ms);
  std::printf("merlin white noise n=%zu: sweep %.1f ms\n", n_merlin,
              merlin_noise_sweep_ms);
  fields.push_back({"merlin_n", static_cast<double>(n_merlin)});
  fields.push_back({"merlin_pan_ms", merlin_pan_ms});
  fields.push_back({"merlin_noise_sweep_ms", merlin_noise_sweep_ms});

  // The parallel leg is only meaningful when the pool actually has
  // more than one thread; on a 1-core runner it is skipped and marked
  // instead of reporting the serial path's noise as a "speedup".
  tsad::SetParallelThreads(threads);
  if (threads > 1) {
    const double mpx_parallel_ms = TimeMs(x, self_join);
    std::printf("parallel (%zu threads): mpx %.1f ms (speedup %.2fx)\n",
                threads, mpx_parallel_ms, mpx_ms / mpx_parallel_ms);
    fields.push_back({"mpx_parallel_ms", mpx_parallel_ms});
    fields.push_back({"mpx_parallel_speedup", mpx_ms / mpx_parallel_ms});
    fields.push_back({"parallel_skipped", 0.0});
  } else {
    std::printf("parallel leg skipped: effective thread count is 1\n");
    fields.push_back({"parallel_skipped", 1.0});
  }

  if (smoke) return 0;
  tsad::bench::WriteBenchJson("perf_matrix_profile", fields, text_fields);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
