// serve workload: a ShardedEngine fleet of ~20k streams of cheap
// online detectors (zscore, cusum, ewma, pagehinkley, oneliner,
// floss:32:256), a quarter of them at kBatch priority, under a memory
// budget below the all-hot footprint. One fleet lifecycle is:
//
//  1. closed loop: every round pushes a fixed block of points to each
//     kNormal stream and pumps; kBatch streams report every fourth
//     round with four blocks at once. Idle kBatch streams are the ones
//     the budget cold-evicts, and they thaw on their next report; the
//     eviction counts repeat exactly;
//  2. failover: engine Snapshot, a fresh engine Restores the blob;
//  3. open loop over the kNormal streams: points fall due at a fixed
//     offered rate; every tick (fixed 10 ms schedule, fixed
//     composition) pushes the points due in its interval and pumps. A
//     point's latency runs from when it was due to the end of the Pump
//     that scored it;
//  4. FinishStream on every stream.
//
// The gate: each stream's FinishStream scores equal (memcmp) the batch
// detector's Score over everything pushed to it, after thaws and the
// failover.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "detectors/registry.h"
#include "serving/engine.h"
#include "serving/online_adapters.h"
#include "substrates/streaming_mpx.h"

namespace perfbench {

namespace {

const std::vector<std::string> kSpecs = {"zscore", "cusum", "ewma",
                                         "pagehinkley", "oneliner",
                                         "floss:32:256"};

constexpr std::size_t kStreams = 20000;
constexpr std::size_t kTrain = 64;
constexpr std::size_t kBatchEvery = 4;      // kBatch streams report every 4th round
constexpr std::size_t kChunk = 16;          // points per stream per round
constexpr std::size_t kClosedPoints = 256;  // per stream
constexpr std::size_t kOpenPoints = 64;     // per kNormal stream
constexpr double kOfferedRate = 2.0e5;      // open loop, points/s
constexpr double kTickSeconds = 0.025;      // open-loop tick period
constexpr double kBudgetShare = 0.8;        // of the all-hot footprint
constexpr std::size_t kTotalPoints = kClosedPoints + kOpenPoints;

bool IsBatch(std::size_t stream) { return stream % 4 == 3; }

struct Fleet {
  std::vector<std::string> ids;
  std::vector<std::size_t> type;  // index into kSpecs
  std::vector<std::size_t> normal;  // the kNormal streams, in order
  std::vector<tsad::Series> series;
  std::size_t budget_bytes = 0;
};

tsad::Series StreamSeries(tsad::Rng rng) {
  tsad::Series x(kTotalPoints);
  const double period = rng.Uniform(12.0, 96.0);
  const double amplitude = rng.Uniform(0.5, 3.0);
  double level = rng.Uniform(-5.0, 5.0);
  for (std::size_t i = 0; i < kTotalPoints; ++i) {
    level += rng.Gaussian(0.0, 0.02);
    x[i] = level + amplitude * std::sin(6.283185307179586 * static_cast<double>(i) / period) +
           rng.Gaussian(0.0, 0.3);
    if (i > kTrain && rng.Bernoulli(0.004)) x[i] += rng.Uniform(-8.0, 8.0);
  }
  return x;
}

// Footprint of one adapter after a whole stream: the budget is a share
// of the fleet's all-hot total.
std::size_t Footprint(const std::string& spec, const tsad::Series& x) {
  tsad::Result<std::unique_ptr<tsad::OnlineDetector>> d =
      tsad::MakeOnlineDetector(spec, kTrain);
  if (!d.ok()) return 0;
  std::vector<tsad::ScoredPoint> sink;
  for (double v : x) {
    if (!(*d)->Observe(v, &sink).ok()) return 0;
    sink.clear();
  }
  return (*d)->MemoryFootprint();
}

Fleet BuildFleet(std::uint64_t seed, std::size_t streams) {
  Fleet fleet;
  tsad::Rng master(seed);
  for (std::size_t s = 0; s < streams; ++s) {
    fleet.ids.push_back("stream-" + std::to_string(s));
    fleet.type.push_back(s % kSpecs.size());
    fleet.series.push_back(StreamSeries(master.Fork(s)));
    if (!IsBatch(s)) fleet.normal.push_back(s);
  }
  std::size_t all_hot = 0;
  for (std::size_t t = 0; t < kSpecs.size(); ++t) {
    const std::size_t per = Footprint(kSpecs[t], fleet.series[t]);
    all_hot += per * ((streams + kSpecs.size() - 1 - t) / kSpecs.size());
  }
  fleet.budget_bytes = static_cast<std::size_t>(kBudgetShare * static_cast<double>(all_hot));
  return fleet;
}

tsad::ServingConfig EngineConfig(const Fleet& fleet) {
  tsad::ServingConfig config;
  config.num_shards = tsad::ParallelThreads();
  config.queue_capacity = std::size_t{1} << 22;  // nothing is shed
  config.memory_budget_bytes = fleet.budget_bytes;
  return config;
}

// Streams, priorities and counters of one engine; AddStream for all.
std::unique_ptr<tsad::ShardedEngine> MakeEngine(const Fleet& fleet, Outcome* outcome) {
  auto engine = std::make_unique<tsad::ShardedEngine>(EngineConfig(fleet));
  std::uint64_t failed = 0;
  for (std::size_t s = 0; s < fleet.ids.size(); ++s) {
    tsad::StreamOptions options;
    options.train_length = kTrain;
    options.priority = IsBatch(s) ? tsad::StreamPriority::kBatch
                                  : tsad::StreamPriority::kNormal;
    trace::Scope span("serving.add_stream", {kSpecs[fleet.type[s]]});
    failed += engine->AddStream(fleet.ids[s], kSpecs[fleet.type[s]], options).ok() ? 0 : 1;
  }
  outcome->Count(fleet.ids.size(), failed, "AddStream calls failed");
  return engine;
}

struct Run {
  double closed_s = 0.0;     // closed-loop push + pump
  double failover_s = 0.0;   // Snapshot + Restore
  double finish_s = 0.0;     // FinishStream on every stream
  std::size_t closed_points = 0;
  std::size_t snapshot_bytes = 0;
  std::vector<float> latency_ms;     // open loop, one per point
  std::vector<double> late_ms;       // open loop, one per tick
  std::size_t backlog_max = 0;
  std::uint64_t evictions = 0, thaws = 0, shed = 0, denied = 0, dropped = 0;
  std::uint64_t memory_peak = 0, cold_peak = 0;
  std::size_t points_by_type[6] = {};
  std::vector<std::size_t> push_counts;  // points per push span, in order

  double work_s() const { return closed_s + failover_s + finish_s; }
};

void TrackPeaks(const tsad::ShardedEngine& engine, Run* run) {
  const tsad::ServingStats stats = engine.stats();
  run->memory_peak = std::max(run->memory_peak, stats.memory_bytes);
  run->cold_peak = std::max(run->cold_peak, stats.cold_bytes);
}

void AddCounters(const tsad::ShardedEngine& engine, Run* run) {
  const tsad::ServingStats stats = engine.stats();
  run->evictions += stats.cold_evictions;
  run->thaws += stats.thaws;
  run->shed += stats.points_shed;
  run->denied += stats.points_denied;
  run->dropped += stats.points_dropped;
}

bool Pump(tsad::ShardedEngine& engine) {
  trace::Scope span("serving.pump");
  return engine.Pump().ok();
}

// One fleet lifecycle. `verify` runs the batch gate at the end.
Run RunFleet(const Fleet& fleet, Outcome* outcome, bool verify) {
  Run run;
  std::unique_ptr<tsad::ShardedEngine> engine = MakeEngine(fleet, outcome);
  const std::size_t streams = fleet.ids.size();
  std::uint64_t push_failed = 0, pushes = 0, pump_failed = 0, pumps = 0;

  // 1. Closed loop.
  const Clock::time_point closed_start = Clock::now();
  for (std::size_t round = 0; round * kChunk < kClosedPoints; ++round) {
    const bool batch_round = round % kBatchEvery == kBatchEvery - 1;
    std::size_t count = 0;
    {
      trace::Scope span("serving.push");
      for (std::size_t s = 0; s < streams; ++s) {
        std::size_t t0 = round * kChunk;
        if (IsBatch(s)) {
          if (!batch_round) continue;
          t0 -= (kBatchEvery - 1) * kChunk;
        }
        const std::size_t t1 = (round + 1) * kChunk;
        const tsad::Series& x = fleet.series[s];
        for (std::size_t t = t0; t < t1; ++t) {
          push_failed += engine->Push(fleet.ids[s], x[t]).ok() ? 0 : 1;
        }
        count += t1 - t0;
      }
      pushes += count;
      run.push_counts.push_back(count);
    }
    pump_failed += Pump(*engine) ? 0 : 1;
    ++pumps;
    if (trace::Enabled()) TrackPeaks(*engine, &run);
  }
  run.closed_s = SecondsSince(closed_start);
  run.closed_points = pushes;
  TrackPeaks(*engine, &run);

  // 2. Failover.
  const Clock::time_point failover_start = Clock::now();
  tsad::Result<std::string> blob = tsad::Status::OK();
  {
    trace::Scope span("serving.snapshot");
    blob = engine->Snapshot();
  }
  outcome->Gate(blob.ok(), "engine Snapshot: " + blob.status().ToString());
  AddCounters(*engine, &run);
  engine = std::make_unique<tsad::ShardedEngine>(EngineConfig(fleet));
  if (blob.ok()) {
    run.snapshot_bytes = blob->size();
    trace::Scope span("serving.restore");
    const tsad::Status restored = engine->Restore(*blob);
    outcome->Gate(restored.ok(), "engine Restore: " + restored.ToString());
  }
  blob = tsad::Status::OK();  // free the blob
  run.failover_s = SecondsSince(failover_start);

  // 3. Open loop: global point j goes to kNormal stream j % normal and
  // is due at j / kOfferedRate; tick i carries the points due in
  // ((i-1) * kTickSeconds, i * kTickSeconds].
  const std::size_t normal = fleet.normal.size();
  const std::size_t open_total = normal * kOpenPoints;
  run.latency_ms.reserve(open_total);
  const Clock::time_point open_start = Clock::now();
  std::size_t j = 0;
  for (std::size_t tick = 1; j < open_total; ++tick) {
    const double tick_at = static_cast<double>(tick) * kTickSeconds;
    const Clock::time_point scheduled =
        open_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(tick_at));
    std::this_thread::sleep_until(scheduled);
    run.late_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - scheduled).count());
    const std::size_t end = std::min(
        open_total, static_cast<std::size_t>(std::floor(tick_at * kOfferedRate)) + 1);
    const std::size_t begin = j;
    {
      trace::Scope span("serving.push");
      for (; j < end; ++j) {
        const std::size_t s = fleet.normal[j % normal];
        push_failed +=
            engine->Push(fleet.ids[s], fleet.series[s][kClosedPoints + j / normal]).ok() ? 0 : 1;
      }
      pushes += end - begin;
      run.push_counts.push_back(end - begin);
    }
    run.backlog_max = std::max(run.backlog_max, end - begin);
    pump_failed += Pump(*engine) ? 0 : 1;
    ++pumps;
    const double done = std::chrono::duration<double>(Clock::now() - open_start).count();
    for (std::size_t k = begin; k < end; ++k) {
      run.latency_ms.push_back(
          static_cast<float>((done - static_cast<double>(k) / kOfferedRate) * 1e3));
    }
    if (trace::Enabled()) TrackPeaks(*engine, &run);
  }
  TrackPeaks(*engine, &run);

  // 4. Finish every stream.
  std::vector<tsad::Result<std::vector<double>>> finished;
  finished.reserve(streams);
  const Clock::time_point finish_start = Clock::now();
  for (std::size_t s = 0; s < streams; ++s) {
    trace::Scope span("serving.finish", {kSpecs[fleet.type[s]]});
    finished.push_back(engine->FinishStream(fleet.ids[s]));
  }
  run.finish_s = SecondsSince(finish_start);
  AddCounters(*engine, &run);
  for (std::size_t s = 0; s < streams; ++s) {
    run.points_by_type[fleet.type[s]] += IsBatch(s) ? kClosedPoints : kTotalPoints;
  }

  std::uint64_t finish_failed = 0;
  for (const auto& f : finished) finish_failed += f.ok() ? 0 : 1;
  outcome->Count(pushes, push_failed, "pushes rejected");
  outcome->Count(pumps, pump_failed, "pumps failed");
  outcome->Count(streams, finish_failed, "FinishStream calls failed");
  outcome->Count(pushes, run.shed + run.denied + run.dropped,
                 "points shed, denied or dropped");

  if (verify) {
    std::vector<char> same(streams, 0);
    const tsad::Status status = tsad::ParallelFor(0, streams, [&](std::size_t s) {
      if (!finished[s].ok()) return tsad::Status::OK();
      tsad::Result<std::unique_ptr<tsad::AnomalyDetector>> batch =
          tsad::MakeDetector(kSpecs[fleet.type[s]]);
      if (!batch.ok()) return tsad::Status::OK();
      const tsad::Series& x = fleet.series[s];
      const tsad::Series pushed(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(
                                               IsBatch(s) ? kClosedPoints : kTotalPoints));
      tsad::Result<std::vector<double>> expected = (*batch)->Score(pushed, kTrain);
      const std::vector<double>& online = *finished[s];
      same[s] = expected.ok() && expected->size() == online.size() &&
                std::memcmp(expected->data(), online.data(),
                            online.size() * sizeof(double)) == 0;
      return tsad::Status::OK();
    });
    outcome->Gate(status.ok(), "batch re-score fan-out");
    std::size_t matched = 0;
    for (std::size_t s = 0; s < streams; ++s) {
      matched += same[s];
      outcome->Gate(same[s] != 0, "FinishStream equals batch Score for " + fleet.ids[s]);
    }
    std::printf("serve gate: %zu of %zu streams byte-identical to batch Score\n",
                matched, streams);
  }
  return run;
}

// ns per Observe of one adapter, outside the engine.
double ObserveNs(const std::string& spec, const tsad::Series& x) {
  std::vector<double> reps;
  for (int rep = 0; rep < 3; ++rep) {
    tsad::Result<std::unique_ptr<tsad::OnlineDetector>> d =
        tsad::MakeOnlineDetector(spec, kTrain);
    if (!d.ok()) return 0.0;
    std::vector<tsad::ScoredPoint> sink;
    sink.reserve(x.size());
    const Clock::time_point start = Clock::now();
    {
      trace::Scope span("serving.online.observe", {spec, "", static_cast<std::int64_t>(x.size())});
      for (double v : x) (void)(*d)->Observe(v, &sink);
    }
    reps.push_back(SecondsSince(start) * 1e9 / static_cast<double>(x.size()));
  }
  return Median(reps);
}

double StreamingMpxPushNs(const tsad::Series& x) {
  tsad::StreamingMpxConfig config;
  config.m = 32;
  config.buffer_cap = 256;
  std::vector<double> reps;
  for (int rep = 0; rep < 3; ++rep) {
    tsad::StreamingMpx kernel(config);
    const Clock::time_point start = Clock::now();
    {
      trace::Scope span("substrates.streaming_mpx.push", {"", "", static_cast<std::int64_t>(x.size()), 32});
      for (double v : x) kernel.Push(v);
    }
    reps.push_back(SecondsSince(start) * 1e9 / static_cast<double>(x.size()));
  }
  return Median(reps);
}

}  // namespace

Outcome RunServeWorkload(const Options& options) {
  Outcome outcome;
  constexpr int kSetups = 3;
  outcome.Setting("warmup_passes", "1");
  outcome.Setting("setup_repeats", std::to_string(kSetups));
  outcome.Setting("streams", std::to_string(kStreams));

  // Set-up: inputs, budget, engine and AddStream (timed kSetups times;
  // the engines built here are discarded).
  Fleet fleet;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point start = Clock::now();
    fleet = BuildFleet(options.seed, kStreams);
    std::unique_ptr<tsad::ShardedEngine> engine = MakeEngine(fleet, &outcome);
    setups.push_back(SecondsSince(start));
  }

  // Warm-up: a small fleet through the whole lifecycle.
  {
    Outcome scratch;
    const Fleet small = BuildFleet(options.seed + 1, kStreams / 20);
    RunFleet(small, &scratch, false);
  }

  Run run = RunFleet(fleet, &outcome, /*verify=*/true);
  Run traced_run;
  if (options.trace) {
    trace::SetEnabled(true);
    traced_run = RunFleet(fleet, &outcome, /*verify=*/false);
    trace::SetEnabled(false);
  }

  const double setup_s = Median(setups);
  const double points_per_s = static_cast<double>(run.closed_points) / run.work_s();
  std::vector<double> latency(run.latency_ms.begin(), run.latency_ms.end());
  outcome.Headline("serve_points_per_s", points_per_s, "points/s",
                   "closed loop, " + std::to_string(run.closed_points) +
                       " points incl. failover and finish");
  outcome.Headline("serve_p50_ms", Quantile(latency, 0.50), "ms",
                   "open loop at " + std::to_string(static_cast<long>(kOfferedRate)) +
                       " points/s, " + std::to_string(latency.size()) + " samples");
  outcome.Headline("serve_p99_ms", Quantile(latency, 0.99), "ms",
                   std::to_string(latency.size()) + " samples");
  outcome.Headline("closed_s", run.closed_s, "s", "closed-loop push + pump");
  outcome.Headline("failover_s", run.failover_s, "s",
                   "Snapshot + Restore of " + std::to_string(run.snapshot_bytes) + " B");
  outcome.Headline("finish_s", run.finish_s, "s", "FinishStream on every stream");
  outcome.Headline("setup_s", setup_s, "s", "median of " + std::to_string(kSetups) + " fleet set-ups");
  outcome.Headline("peak_rss_mb", PeakRssMb(), "MB");
  outcome.Headline("cold_evictions", static_cast<double>(run.evictions), "count",
                   "thaws " + std::to_string(run.thaws));
  outcome.EndToEnd("setup_s", setup_s, "s");
  outcome.EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  outcome.EndToEnd("work_s", run.work_s(), "s");

  if (options.trace) {
    const Run& t = traced_run;
    const std::vector<trace::Span> spans = trace::Collect();
    outcome.Layer("serving.add_stream_s", SpanSeconds(spans, "serving.add_stream"), "s");
    const double push_s = SpanSeconds(spans, "serving.push");
    double pushed = 0.0;
    for (std::size_t c : t.push_counts) pushed += static_cast<double>(c);
    outcome.Layer("serving.push_ns", pushed > 0 ? push_s * 1e9 / pushed : 0.0, "ns");
    outcome.Layer("serving.finish_s", SpanSeconds(spans, "serving.finish"), "s");
    outcome.Layer("serving.snapshot_s", SpanSeconds(spans, "serving.snapshot"), "s");
    outcome.Layer("serving.snapshot_bytes", static_cast<double>(t.snapshot_bytes), "B");
    outcome.Layer("serving.restore_s", SpanSeconds(spans, "serving.restore"), "s");
    std::vector<double> pumps = SpanDurations(spans, "serving.pump");
    for (double& p : pumps) p *= 1e3;
    outcome.Layer("serving.pump_ms.p50", Quantile(pumps, 0.50), "ms");
    outcome.Layer("serving.pump_ms.p99", Quantile(pumps, 0.99), "ms");
    outcome.Layer("serving.pump_s.sum", SpanSeconds(spans, "serving.pump"), "s");
    outcome.Layer("serving.backlog.max", static_cast<double>(t.backlog_max), "count");
    outcome.Layer("serving.cold_evictions", static_cast<double>(t.evictions), "count");
    outcome.Layer("serving.thaws", static_cast<double>(t.thaws), "count");
    outcome.Layer("serving.shed", static_cast<double>(t.shed), "count");
    outcome.Layer("serving.denied", static_cast<double>(t.denied), "count");
    outcome.Layer("serving.memory_bytes.peak", static_cast<double>(t.memory_peak), "B");
    outcome.Layer("serving.cold_bytes.peak", static_cast<double>(t.cold_peak), "B");
    // Each adapter timed directly on a long stream, outside the engine.
    tsad::Series longer;
    for (std::size_t s = 0; s < 40; ++s) {
      longer.insert(longer.end(), fleet.series[s].begin(), fleet.series[s].end());
    }
    trace::SetEnabled(true);
    double detector_s = 0.0;
    for (std::size_t i = 0; i < kSpecs.size(); ++i) {
      const double ns = ObserveNs(kSpecs[i], longer);
      outcome.Layer("serving.online.observe_ns." + tsad::DetectorTypeKey(kSpecs[i]), ns,
                    "ns");
      detector_s += ns * 1e-9 * static_cast<double>(t.points_by_type[i]);
    }
    outcome.Layer("substrates.streaming_mpx.push_ns", StreamingMpxPushNs(longer), "ns");
    trace::SetEnabled(false);
    const double engine_s = push_s + SpanSeconds(spans, "serving.pump");
    outcome.Layer("serving.engine_overhead_frac",
                  engine_s > 0 ? 1.0 - detector_s / engine_s : 0.0, "fraction");
    outcome.Layer("serving.generator_late_ms.p99", Quantile(t.late_ms, 0.99), "ms");
    outcome.Layer("trace.overhead_s", t.work_s() - run.work_s(), "s");
    outcome.Layer("trace.overhead_frac", (t.work_s() - run.work_s()) / run.work_s(),
                  "fraction");
  }
  return outcome;
}

}  // namespace perfbench
