#include "datasets/nasa.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "datasets/generators.h"

namespace tsad {

namespace {

constexpr std::size_t kChannelLength = 5000;
constexpr std::size_t kTrainLength = 1500;

// Baseline telemetry: quasi-periodic bus voltage / thermal style
// signal with slow drift and mild noise.
Series TelemetryBase(std::size_t n, Rng& rng) {
  const double period = rng.Uniform(80.0, 200.0);
  return Mix({Sinusoid(n, period, rng.Uniform(0.5, 1.5), rng.Uniform(0, 6.28)),
              Sinusoid(n, period * 5.3, rng.Uniform(0.2, 0.6), 1.0),
              MeanRevertingWalk(n, 0.0, 0.02, 0.02, rng),
              GaussianNoise(n, 0.05, rng)});
}

// Magnitude-jump channel: the anomaly is a value excursion orders of
// magnitude beyond the normal range.
LabeledSeries MakeMagnitudeJumpChannel(const std::string& name, Rng& rng) {
  Series x = TelemetryBase(kChannelLength, rng);
  const std::size_t pos = PickPosition(rng, kTrainLength + 100,
                                       kChannelLength - 60, 40, 0.6);
  const double magnitude = rng.Uniform(50.0, 500.0) *
                           (rng.Bernoulli(0.5) ? 1.0 : -1.0);
  std::vector<AnomalyRegion> anomalies;
  anomalies.push_back(InjectSmoothHump(x, pos, 40, magnitude));
  return LabeledSeries(name, std::move(x), std::move(anomalies),
                       kTrainLength);
}

// Frozen channel: dynamic series suddenly becomes exactly constant.
LabeledSeries MakeFrozenChannel(const std::string& name, Rng& rng,
                                std::vector<std::size_t>* unlabeled_twins) {
  Series x = TelemetryBase(kChannelLength, rng);
  const std::size_t width = 120;
  const std::size_t lo = kTrainLength + 100;
  const std::size_t span = kChannelLength - lo - width - 100;
  // Three freezes; only the first labeled when twins are requested.
  const std::size_t p1 = lo + span / 6;
  const std::size_t p2 = lo + span / 2;
  const std::size_t p3 = lo + (5 * span) / 6;
  std::vector<AnomalyRegion> anomalies;
  anomalies.push_back(InjectFreeze(x, p1, width));
  if (unlabeled_twins != nullptr) {
    InjectFreeze(x, p2, width);
    InjectFreeze(x, p3, width);
    unlabeled_twins->push_back(p2);
    unlabeled_twins->push_back(p3);
  }
  return LabeledSeries(name, std::move(x), std::move(anomalies),
                       kTrainLength);
}

// Long-region channel: a contiguous anomaly covering `fraction` of the
// test span (the D-2 / M-1 / M-2 density flaw).
LabeledSeries MakeLongRegionChannel(const std::string& name, double fraction,
                                    Rng& rng) {
  Series x = TelemetryBase(kChannelLength, rng);
  const std::size_t test_len = kChannelLength - kTrainLength;
  const std::size_t width =
      static_cast<std::size_t>(fraction * static_cast<double>(test_len));
  const std::size_t pos = kChannelLength - width - 10;
  // Degraded mode: offset + altered dynamics for the rest of the run.
  std::vector<AnomalyRegion> anomalies;
  AnomalyRegion r{pos, pos + width};
  for (std::size_t i = r.begin; i < r.end && i < x.size(); ++i) {
    x[i] = x[i] * 0.3 + 3.0 +
           0.8 * std::sin(0.9 * static_cast<double>(i - r.begin));
  }
  anomalies.push_back(r);
  return LabeledSeries(name, std::move(x), std::move(anomalies),
                       kTrainLength);
}

// Challenging channel: a subtle time warp in one cycle.
LabeledSeries MakeChallengingChannel(const std::string& name, Rng& rng) {
  const double period = 120.0;
  Series x = Mix({Sinusoid(kChannelLength, period, 1.0, 0.0),
                  Sinusoid(kChannelLength, period / 3.0, 0.3, 0.7),
                  GaussianNoise(kChannelLength, 0.03, rng)});
  const std::size_t pos = PickPosition(rng, kTrainLength + 200,
                                       kChannelLength - 300, 240, 0.5);
  std::vector<AnomalyRegion> anomalies;
  anomalies.push_back(InjectTimeWarp(x, pos, 240, 1.6));
  return LabeledSeries(name, std::move(x), std::move(anomalies),
                       kTrainLength);
}

}  // namespace

NasaArchive GenerateNasaArchive(const NasaConfig& config) {
  NasaArchive archive;
  archive.channels.name = "NASA SMAP/MSL";
  Rng master(config.seed);

  // Magnitude-jump channels (about half the real archive's labels).
  for (int i = 1; i <= 4; ++i) {
    Rng rng = master.Fork(100 + static_cast<uint64_t>(i));
    archive.channels.series.push_back(MakeMagnitudeJumpChannel(
        "P-" + std::to_string(i), rng));
  }
  // Frozen channels; G-1 carries the Fig 9 unlabeled twins.
  {
    Rng rng = master.Fork(200);
    archive.channels.series.push_back(MakeFrozenChannel(
        "G-1", rng, &archive.g1_unlabeled_freezes));
  }
  for (int i = 2; i <= 3; ++i) {
    Rng rng = master.Fork(200 + static_cast<uint64_t>(i));
    archive.channels.series.push_back(MakeFrozenChannel(
        "G-" + std::to_string(i), rng, nullptr));
  }
  // Density-flaw channels: more than half / a third of the test span.
  {
    Rng rng = master.Fork(300);
    archive.channels.series.push_back(
        MakeLongRegionChannel("D-2", 0.55, rng));
  }
  {
    Rng rng = master.Fork(301);
    archive.channels.series.push_back(
        MakeLongRegionChannel("M-1", 0.60, rng));
  }
  {
    Rng rng = master.Fork(302);
    archive.channels.series.push_back(
        MakeLongRegionChannel("M-2", 0.52, rng));
  }
  {
    Rng rng = master.Fork(303);
    archive.channels.series.push_back(
        MakeLongRegionChannel("D-5", 0.35, rng));
  }
  // Challenging channels (~10% of the archive).
  {
    Rng rng = master.Fork(400);
    archive.channels.series.push_back(
        MakeChallengingChannel("A-7", rng));
  }
  return archive;
}

}  // namespace tsad
