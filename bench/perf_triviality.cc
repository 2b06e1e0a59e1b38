// Performance benchmark for the Table 1 engine: the per-series
// brute-force one-liner search (exact b sweep over the (form, k, c)
// grid), plus the end-to-end 367-series archive analysis.
//
// Before the google-benchmark suites run, main() times the full-archive
// analysis serially (--threads 1) and at the resolved thread count and
// writes the pair to BENCH_perf_triviality.json — the machine-readable
// record CI archives to track the parallel layer's speedup.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <limits>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/triviality.h"
#include "datasets/generators.h"
#include "datasets/yahoo.h"

namespace {

tsad::LabeledSeries SpikySeries(std::size_t n, uint64_t seed) {
  tsad::Rng rng(seed);
  tsad::Series x = tsad::GaussianNoise(n, 1.0, rng);
  const tsad::AnomalyRegion r = tsad::InjectSpike(x, (3 * n) / 4, 20.0);
  return tsad::LabeledSeries("bench", std::move(x), {r});
}

void BM_FindOneLiner(benchmark::State& state) {
  const tsad::LabeledSeries series =
      SpikySeries(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsad::FindOneLiner(series));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FindOneLiner)->Range(1 << 10, 1 << 15)->Complexity();

void BM_FindOneLinerUnsolvable(benchmark::State& state) {
  // Nothing solves, so every candidate of the grid is tried, but most
  // end at once: a forbidden point that rejected an earlier candidate
  // of the series is tested before the ascending scan, and usually
  // rejects this one too.
  tsad::Rng rng(2);
  tsad::Series x =
      tsad::GaussianNoise(static_cast<std::size_t>(state.range(0)), 1.0, rng);
  tsad::LabeledSeries series("bench", std::move(x), {{100, 101}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsad::FindOneLiner(series));
  }
}
BENCHMARK(BM_FindOneLinerUnsolvable)->Range(1 << 10, 1 << 14);

void BM_Table1FullArchive(benchmark::State& state) {
  const tsad::YahooArchive archive = tsad::GenerateYahooArchive();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsad::AnalyzeTriviality(archive.all()));
  }
}
BENCHMARK(BM_Table1FullArchive)->Unit(benchmark::kMillisecond);

void BM_GenerateYahooArchive(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsad::GenerateYahooArchive());
  }
}
BENCHMARK(BM_GenerateYahooArchive)->Unit(benchmark::kMillisecond);

// Best-of-2 wall time of one full-archive analysis, in milliseconds.
double TimeFullArchiveMs(const tsad::YahooArchive& archive) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 2; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(tsad::AnalyzeTriviality(archive.all()));
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  tsad::bench::InitThreadsFromArgs(&argc, argv);
  const bool smoke = tsad::bench::ConsumeFlag(&argc, argv, "--smoke");
  const std::size_t threads = tsad::ParallelThreads();
  tsad::YahooConfig config;
  if (smoke) {
    // Tiny archive for the perf_smoke ctest label: proves the bench
    // runs, measures nothing, writes no JSON.
    config.a1_count = 2;
    config.a2_count = 2;
    config.a3_count = 2;
    config.a4_count = 2;
  }
  const tsad::YahooArchive archive = tsad::GenerateYahooArchive(config);

  tsad::SetParallelThreads(1);
  const double serial_ms = TimeFullArchiveMs(archive);
  std::printf("table1 full archive: serial %.1f ms\n", serial_ms);

  std::vector<std::pair<std::string, double>> fields = {
      {"serial_ms", serial_ms}, {"threads", static_cast<double>(threads)}};

  // Skip (and mark) the parallel leg when the pool resolves to a
  // single thread — re-timing the serial path would report noise as
  // "speedup".
  tsad::SetParallelThreads(threads);
  if (threads > 1) {
    const double parallel_ms = TimeFullArchiveMs(archive);
    std::printf("parallel (%zu threads): %.1f ms (speedup %.2fx)\n", threads,
                parallel_ms, serial_ms / parallel_ms);
    fields.push_back({"parallel_ms", parallel_ms});
    fields.push_back({"speedup", serial_ms / parallel_ms});
    fields.push_back({"parallel_skipped", 0.0});
  } else {
    std::printf("parallel leg skipped: effective thread count is 1\n");
    fields.push_back({"parallel_skipped", 1.0});
  }

  if (smoke) return 0;
  tsad::bench::WriteBenchJson("perf_triviality", fields);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
