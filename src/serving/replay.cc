#include "serving/replay.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "common/saturating.h"
#include "detectors/registry.h"

namespace tsad {

namespace {

std::string StreamId(std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "stream-%04zu", i);
  return buf;
}

// Bitwise equality — NaN == NaN, +0 != -0. The serving contract is
// "the same bytes", not "numerically close".
bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

Result<ReplayReport> ReplayThroughEngine(const Series& series,
                                         const ReplayOptions& options) {
  if (series.empty()) return Status::InvalidArgument("empty replay series");
  if (options.num_streams == 0) {
    return Status::InvalidArgument("need at least one stream");
  }
  const std::size_t batch = std::max<std::size_t>(1, options.batch);

  ServingConfig config = options.engine;
  // One micro-batch from every stream must fit, or replay would shed
  // its own input; a batch too large to count asks for no limit at all.
  config.queue_capacity = std::max(config.queue_capacity,
                                   SaturatingMul(options.num_streams, batch));
  ShardedEngine engine(config);
  for (std::size_t s = 0; s < options.num_streams; ++s) {
    StreamOptions stream;
    stream.priority = options.priority;
    stream.train_length = options.train_length;
    TSAD_RETURN_IF_ERROR(
        engine.AddStream(StreamId(s), options.detector_spec, stream));
  }

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t t0 = 0; t0 < series.size(); t0 += batch) {
    const std::size_t t1 = std::min(series.size(), t0 + batch);
    for (std::size_t s = 0; s < options.num_streams; ++s) {
      const std::string id = StreamId(s);
      for (std::size_t t = t0; t < t1; ++t) {
        TSAD_RETURN_IF_ERROR(engine.Push(id, series[t]));
      }
    }
    TSAD_RETURN_IF_ERROR(engine.Pump());
  }

  // Per-type footprints must be sampled while the detectors are still
  // alive; FinishStream tears them down.
  std::map<std::string, DetectorTypeStats> detector_memory =
      engine.stats().detector_memory;

  std::vector<std::vector<double>> results;
  results.reserve(options.num_streams);
  for (std::size_t s = 0; s < options.num_streams; ++s) {
    TSAD_ASSIGN_OR_RETURN(std::vector<double> scores,
                          engine.FinishStream(StreamId(s)));
    results.push_back(std::move(scores));
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  ReplayReport report;
  report.streams = options.num_streams;
  report.points = SaturatingMul(options.num_streams, series.size());
  report.seconds = seconds;
  report.points_per_sec =
      seconds > 0.0 ? static_cast<double>(report.points) / seconds : 0.0;

  ServingStats stats = engine.stats();
  report.shed = stats.points_shed;
  report.denied = stats.points_denied;
  report.cold_evictions = stats.cold_evictions;
  report.thaws = stats.thaws;
  report.quarantines = stats.quarantines;
  report.recoveries = stats.recoveries;
  report.p99_pump_seconds = stats.p99_pump_seconds;
  report.detector_memory = std::move(detector_memory);

  if (options.verify_against_batch) {
    TSAD_ASSIGN_OR_RETURN(std::unique_ptr<AnomalyDetector> batch_detector,
                          MakeDetector(options.detector_spec));
    TSAD_ASSIGN_OR_RETURN(
        std::vector<double> expected,
        batch_detector->Score(series, options.train_length));
    report.verified = true;
    for (const std::vector<double>& scores : results) {
      if (!BitIdentical(scores, expected)) {
        report.verified = false;
        break;
      }
    }
  }
  return report;
}

}  // namespace tsad
