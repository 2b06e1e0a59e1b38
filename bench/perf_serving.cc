// Performance benchmark for the multi-stream serving engine: fans a
// synthetic series out to many streams running the streaming-discord
// adapter (the heaviest online detector) and measures replay throughput
// at 1 thread versus the resolved thread count, then runs a bounded-
// memory FLOSS fleet at 5k, 20k, 50k and 100k streams (the fleet envelope:
// points/s, bytes per stream, peak bytes and microseconds per
// FinishStream at each size). Writes both to BENCH_perf_serving.json —
// the machine-readable record CI archives to track the sharded engine's
// scaling.
//
// The one-thread and N-thread runs verify byte-identity against the
// batch detector first (the serving contract), then the timed runs skip
// verification so the numbers measure the engine, not the batch replay.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/cpu_features.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/series.h"
#include "detectors/registry.h"
#include "serving/online_adapters.h"
#include "serving/replay.h"

namespace {

tsad::Series SyntheticTelemetry(std::size_t n, uint64_t seed) {
  tsad::Rng rng(seed);
  tsad::Series x(n);
  double level = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    level += rng.Gaussian(0.0, 0.05);
    x[i] = level + std::sin(0.11 * static_cast<double>(i)) +
           rng.Gaussian(0.0, 0.2);
  }
  return x;
}

// Footprint of one online adapter after observing `points` values —
// the engine charges exactly MemoryFootprint() against its budget, so
// this probe sizes fleet budgets precisely.
std::size_t ProbeFootprint(const std::string& spec, std::size_t points) {
  tsad::Result<std::unique_ptr<tsad::OnlineDetector>> probe =
      tsad::MakeOnlineDetector(spec, 0);
  if (!probe.ok()) {
    std::printf("cannot probe %s: %s\n", spec.c_str(),
                probe.status().ToString().c_str());
    std::exit(1);
  }
  std::vector<tsad::ScoredPoint> sink;
  tsad::Rng rng(2);
  for (std::size_t t = 0; t < points; ++t) {
    if (!(*probe)->Observe(rng.Gaussian(), &sink).ok()) {
      std::printf("probe detector rejected input\n");
      std::exit(1);
    }
    sink.clear();
  }
  return (*probe)->MemoryFootprint();
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<double> BatchScores(const std::string& spec,
                                const tsad::Series& series) {
  tsad::Result<std::unique_ptr<tsad::AnomalyDetector>> batch =
      tsad::MakeDetector(spec);
  tsad::Result<std::vector<double>> scores =
      batch.ok() ? (*batch)->Score(series, 0)
                 : tsad::Result<std::vector<double>>(batch.status());
  if (!scores.ok()) {
    std::printf("FAILED: batch %s: %s\n", spec.c_str(),
                scores.status().ToString().c_str());
    std::exit(1);
  }
  return *scores;
}

// Mixed fleet under a fixed memory budget: `floss_streams` bounded-ring
// FLOSS streams plus a z-score control group, with the budget sized
// from the probed per-stream footprints. Because the floss footprint is
// CONSTANT (the ring is reserved at construction), the projection is
// exact and the fleet must finish with zero cold evictions — a fleet of
// unbounded left-profile streams at this scale would blow any fixed
// budget and churn. Every stream is then finished and checked against
// the batch detector; FinishStream is timed per call, so the envelope
// shows whether finishing one stream costs more in a bigger fleet.
struct FleetResult {
  std::size_t floss_streams = 0;
  std::size_t control_streams = 0;
  double points_per_sec = 0.0;             // over push + pump
  std::size_t floss_bytes_per_stream = 0;  // the engine's floss rollup
  std::size_t budget_bytes = 0;
  std::size_t peak_bytes = 0;
  double finish_us = 0.0;                  // mean wall time per FinishStream
};

FleetResult RunFlossFleet(std::size_t floss_streams, std::size_t points,
                          const tsad::Series& series) {
  const std::string floss_spec = "floss:32:256";
  const std::string control_spec = "zscore:w=64";
  const std::size_t control_streams = floss_streams / 8 + 1;
  const std::size_t floss_fp = ProbeFootprint(floss_spec, points);
  const std::size_t control_fp = ProbeFootprint(control_spec, points);

  tsad::ServingConfig config;
  config.num_shards = tsad::ParallelThreads();
  config.queue_capacity = (floss_streams + control_streams) * 128;
  // Exact all-hot projection plus 2% slack: constant footprints make
  // the budget tight AND safe.
  config.memory_budget_bytes =
      (floss_fp * floss_streams + control_fp * control_streams) * 51 / 50;

  std::vector<std::pair<std::string, const std::string*>> fleet;
  for (std::size_t s = 0; s < floss_streams; ++s) {
    fleet.emplace_back("floss-" + std::to_string(s), &floss_spec);
  }
  for (std::size_t s = 0; s < control_streams; ++s) {
    fleet.emplace_back("control-" + std::to_string(s), &control_spec);
  }
  tsad::ShardedEngine engine(config);
  for (const auto& [id, spec] : fleet) {
    const tsad::Status added = engine.AddStream(id, *spec, 0);
    if (!added.ok()) {
      std::printf("AddStream: %s\n", added.ToString().c_str());
      std::exit(1);
    }
  }

  const auto start = std::chrono::steady_clock::now();
  std::size_t peak = 0;
  for (std::size_t t0 = 0; t0 < points; t0 += 128) {
    const std::size_t t1 = std::min(points, t0 + 128);
    for (const auto& [id, spec] : fleet) {
      for (std::size_t t = t0; t < t1; ++t) {
        if (!engine.Push(id, series[t]).ok()) {
          std::printf("FAILED: fleet push rejected for %s\n", id.c_str());
          std::exit(1);
        }
      }
    }
    if (!engine.Pump().ok()) {
      std::printf("FAILED: fleet pump\n");
      std::exit(1);
    }
    peak = std::max(peak, static_cast<std::size_t>(
                              engine.stats().memory_bytes));
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const tsad::ServingStats stats = engine.stats();
  if (stats.memory_bytes > config.memory_budget_bytes ||
      stats.cold_evictions != 0) {
    std::printf("FAILED: floss fleet broke its memory budget "
                "(%llu / %zu bytes, %llu evictions)\n",
                static_cast<unsigned long long>(stats.memory_bytes),
                config.memory_budget_bytes,
                static_cast<unsigned long long>(stats.cold_evictions));
    std::exit(1);
  }
  const auto floss_it = stats.detector_memory.find("floss");
  if (floss_it == stats.detector_memory.end() ||
      floss_it->second.streams != floss_streams ||
      floss_it->second.bytes != floss_fp * floss_streams) {
    std::printf("FAILED: per-type memory rollup wrong for floss\n");
    std::exit(1);
  }

  // Finish every stream. All of them saw the same series, so each
  // spec's batch Score is the reference for every stream of that spec.
  const tsad::Series head(series.begin(),
                          series.begin() + static_cast<std::ptrdiff_t>(points));
  const std::vector<double> floss_expected = BatchScores(floss_spec, head);
  const std::vector<double> control_expected =
      BatchScores(control_spec, head);
  double finish_seconds = 0.0;
  for (const auto& [id, spec] : fleet) {
    const auto call = std::chrono::steady_clock::now();
    tsad::Result<std::vector<double>> online = engine.FinishStream(id);
    finish_seconds += std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - call)
                          .count();
    if (!online.ok() ||
        !BitEqual(*online,
                  spec == &floss_spec ? floss_expected : control_expected)) {
      std::printf("FAILED: fleet stream %s diverged from batch\n",
                  id.c_str());
      std::exit(1);
    }
  }

  FleetResult result;
  result.floss_streams = floss_streams;
  result.control_streams = control_streams;
  result.points_per_sec =
      seconds > 0.0 ? static_cast<double>(fleet.size() * points) / seconds
                    : 0.0;
  result.floss_bytes_per_stream = floss_it->second.bytes / floss_streams;
  result.budget_bytes = config.memory_budget_bytes;
  result.peak_bytes = peak;
  result.finish_us = finish_seconds * 1e6 / static_cast<double>(fleet.size());
  return result;
}

// Best-of-3 replay at the current thread count.
tsad::ReplayReport BestReplay(const tsad::Series& series,
                              const tsad::ReplayOptions& options) {
  tsad::ReplayReport best;
  best.seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    tsad::Result<tsad::ReplayReport> report =
        tsad::ReplayThroughEngine(series, options);
    if (!report.ok()) {
      std::printf("replay failed: %s\n", report.status().ToString().c_str());
      std::exit(1);
    }
    if (report->seconds < best.seconds) best = *report;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  tsad::bench::InitThreadsFromArgs(&argc, argv);
  // The streaming-discord adapter's lag advance runs through the
  // dispatched MPX kernels, so the serving numbers depend on the ISA
  // tier; accept the override flag and stamp the tier into the JSON.
  tsad::bench::InitMpIsaFromArgs(&argc, argv);
  const bool smoke = tsad::bench::ConsumeFlag(&argc, argv, "--smoke");
  std::size_t threads = tsad::ParallelThreads();
  if (threads < 2) threads = 8;  // the point is the scaling comparison

  // --smoke (the perf_smoke ctest label) shrinks the replay to prove
  // the bench and the byte-identity gate execute; it writes no JSON.
  const tsad::Series series = SyntheticTelemetry(smoke ? 1024 : 4096, 1);
  tsad::ReplayOptions options;
  options.num_streams = smoke ? 4 : 16;
  options.detector_spec = "streaming:m=64";
  options.batch = 256;

  // Correctness gate first: the engine must be byte-identical to the
  // batch detector at both thread counts before timing means anything.
  options.verify_against_batch = true;
  tsad::SetParallelThreads(1);
  tsad::Result<tsad::ReplayReport> check1 =
      tsad::ReplayThroughEngine(series, options);
  tsad::SetParallelThreads(threads);
  tsad::Result<tsad::ReplayReport> checkN =
      tsad::ReplayThroughEngine(series, options);
  if (!check1.ok() || !checkN.ok() || !check1->verified ||
      !checkN->verified) {
    std::printf("FAILED: engine replay is not byte-identical to batch\n");
    return 1;
  }

  options.verify_against_batch = false;
  tsad::SetParallelThreads(1);
  const tsad::ReplayReport serial = BestReplay(series, options);
  tsad::SetParallelThreads(threads);
  const tsad::ReplayReport parallel = BestReplay(series, options);

  const double speedup = serial.seconds / parallel.seconds;
  std::printf("serving replay: %zu streams x %zu points, %s\n",
              options.num_streams, series.size(),
              options.detector_spec.c_str());
  std::printf("  1 thread : %9.0f points/s  (p99 pump %6.2f ms)\n",
              serial.points_per_sec, serial.p99_pump_seconds * 1e3);
  std::printf("  %zu threads: %9.0f points/s  (p99 pump %6.2f ms)\n",
              threads, parallel.points_per_sec,
              parallel.p99_pump_seconds * 1e3);
  std::printf("  speedup  : %.2fx\n", speedup);

  // Bounded-memory floss fleet: the scale the ring buffer exists for,
  // at four sizes spanning 20x (the envelope), or one miniature.
  const std::vector<std::size_t> fleet_sizes =
      smoke ? std::vector<std::size_t>{200}
            : std::vector<std::size_t>{5000, 20000, 50000, 100000};
  const std::size_t fleet_points = smoke ? 96 : 384;
  const tsad::Series fleet_series = SyntheticTelemetry(fleet_points, 3);
  std::printf("floss fleet envelope: floss:32:256 + zscore:w=64 controls, "
              "%zu points/stream, budget all-hot + 2%%, 0 evictions\n",
              fleet_points);
  std::printf("  %7s %8s %10s %9s %11s %11s\n", "streams", "controls",
              "points/s", "B/stream", "peak B", "us/finish");
  std::vector<FleetResult> fleets;
  for (std::size_t streams : fleet_sizes) {
    fleets.push_back(RunFlossFleet(streams, fleet_points, fleet_series));
    const FleetResult& fleet = fleets.back();
    std::printf("  %7zu %8zu %10.0f %9zu %11zu %11.2f\n",
                fleet.floss_streams, fleet.control_streams,
                fleet.points_per_sec, fleet.floss_bytes_per_stream,
                fleet.peak_bytes, fleet.finish_us);
  }
  // Contrast with the unbounded streaming-discord kernel the fleet
  // replaces: it keeps the whole stream, so its footprint grows with
  // every point.
  const std::size_t streaming_points = smoke ? 1024 : 10'000;
  const double streaming_bytes_per_point =
      static_cast<double>(ProbeFootprint("streaming:m=64", streaming_points)) /
      static_cast<double>(streaming_points);
  std::printf("  streaming:m=64 kernel: %.1f B/point measured after %zu "
              "points (unbounded)\n",
              streaming_bytes_per_point, streaming_points);

  if (smoke) return 0;
  std::vector<std::pair<std::string, double>> fields = {
      {"streams", static_cast<double>(options.num_streams)},
      {"points", static_cast<double>(serial.points)},
      {"points_per_sec_1t", serial.points_per_sec},
      {"points_per_sec_nt", parallel.points_per_sec},
      {"p99_pump_ms_1t", serial.p99_pump_seconds * 1e3},
      {"p99_pump_ms_nt", parallel.p99_pump_seconds * 1e3},
      {"speedup", speedup},
      {"threads", static_cast<double>(threads)},
      {"streaming_bytes_per_point", streaming_bytes_per_point}};
  for (const FleetResult& fleet : fleets) {
    const std::string key =
        "floss_fleet_" + std::to_string(fleet.floss_streams) + "_";
    fields.emplace_back(key + "control_streams",
                        static_cast<double>(fleet.control_streams));
    fields.emplace_back(key + "points_per_sec", fleet.points_per_sec);
    fields.emplace_back(key + "bytes_per_stream",
                        static_cast<double>(fleet.floss_bytes_per_stream));
    fields.emplace_back(key + "budget_bytes",
                        static_cast<double>(fleet.budget_bytes));
    fields.emplace_back(key + "peak_bytes",
                        static_cast<double>(fleet.peak_bytes));
    fields.emplace_back(key + "finish_us", fleet.finish_us);
  }
  tsad::bench::WriteBenchJson(
      "perf_serving", fields,
      {{"mp_isa", tsad::SimdTierName(tsad::ActiveSimdTier())},
       {"mp_isa_detected", tsad::SimdTierName(tsad::DetectSimdTier())}});
  return 0;
}
