#include "datasets/numenta.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "datasets/generators.h"

namespace tsad {

namespace {

constexpr std::size_t kBucketsPerDay = 48;  // 30-minute buckets
constexpr std::size_t kNumDays = 215;       // 2014-07-01 .. 2015-01-31

// Smooth daily demand profile: overnight trough ~4am, morning ramp,
// evening peak ~19:00. `t` in [0, 1) is the fraction of the day.
double DailyProfile(double t) {
  // Sum of two von-Mises-like bumps (morning and evening) on a base.
  const double morning = std::exp(-std::pow((t - 0.35) * 8.0, 2.0));
  const double evening = std::exp(-std::pow((t - 0.79) * 6.0, 2.0));
  const double overnight = std::exp(-std::pow((t - 0.17) * 9.0, 2.0));
  return 0.35 + 0.5 * morning + 0.9 * evening - 0.25 * overnight;
}

// Weekly modulation: Fri/Sat nights busier, Sunday mornings quieter.
double WeekdayFactor(std::size_t day_of_week, double t) {
  switch (day_of_week) {
    case 4:  // Friday: busy evening
      return t > 0.7 ? 1.18 : 1.02;
    case 5:  // Saturday: busy night, late start
      return t > 0.7 ? 1.22 : (t < 0.3 ? 0.9 : 1.05);
    case 6:  // Sunday: quiet
      return 0.85;
    default:
      return 1.0;
  }
}

std::vector<TaxiEvent> PlannedTaxiEvents() {
  // Day offsets from 2014-07-01 (a Tuesday; day_of_week base = 1).
  return {
      {"Independence Day", 3, 1, false, 0.70},
      {"Labor Day", 62, 1, false, 0.75},
      {"Climate March", 82, 1, false, 1.25},
      {"Comic Con", 101, 2, false, 1.20},
      {"NYC Marathon / DST", 124, 1, true, 1.30},
      {"Thanksgiving", 149, 1, true, 0.55},
      {"Garner grand-jury protests", 155, 1, false, 0.78},
      {"Millions March", 165, 1, false, 1.22},
      {"Christmas", 177, 1, true, 0.50},
      {"New Year's Day", 184, 1, true, 1.45},
      {"MLK Day", 202, 1, false, 0.80},
      {"Blizzard", 209, 2, true, 0.35},
  };
}

}  // namespace

TaxiData GenerateTaxiData(const NumentaConfig& config) {
  Rng rng(config.seed);
  TaxiData data;
  data.buckets_per_day = kBucketsPerDay;
  data.events = PlannedTaxiEvents();

  const std::size_t n = kNumDays * kBucketsPerDay;
  Series x(n);
  const double base_demand = 15000.0;

  // Per-day event multiplier lookup.
  std::vector<double> day_factor(kNumDays, 1.0);
  for (const TaxiEvent& e : data.events) {
    for (std::size_t d = e.day; d < e.day + e.duration_days && d < kNumDays;
         ++d) {
      day_factor[d] *= e.demand_factor;
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t day = i / kBucketsPerDay;
    const double t = static_cast<double>(i % kBucketsPerDay) /
                     static_cast<double>(kBucketsPerDay);
    const std::size_t dow = (day + 1) % 7;  // 2014-07-01 was a Tuesday
    double demand = base_demand * DailyProfile(t) * WeekdayFactor(dow, t);
    // Event shaping: scale the whole day; protests/marathons also
    // flatten the evening peak (street closures shift demand).
    const double f = day_factor[day];
    demand *= f;
    if (f > 1.1 && t > 0.6) demand *= 1.1;  // event nights run late
    // Mild seasonal cooling into winter.
    demand *= 1.0 - 0.08 * static_cast<double>(day) /
                        static_cast<double>(kNumDays);
    x[i] = std::max(0.0, demand + rng.Gaussian(0.0, base_demand * 0.02));
  }

  // Ground-truth regions: official events only.
  std::vector<AnomalyRegion> official;
  for (const TaxiEvent& e : data.events) {
    const AnomalyRegion r{e.day * kBucketsPerDay,
                          std::min(n, (e.day + e.duration_days) *
                                          kBucketsPerDay)};
    data.all_event_regions.push_back(r);
    if (e.officially_labeled) official.push_back(r);
  }
  data.series =
      LabeledSeries("nyc_taxi", std::move(x), std::move(official), 0);
  return data;
}

LabeledSeries GenerateArtSpikeDensity(const NumentaConfig& config) {
  constexpr std::size_t n = 4000;
  Rng rng(config.seed + 1);
  Series x = GaussianNoise(n, 0.05, rng);
  // Baseline spikes every ~25 points; tripled rate in the anomaly.
  const std::size_t anomaly_begin = (3 * n) / 4;
  const std::size_t anomaly_end = std::min(n, anomaly_begin + n / 10);
  std::size_t i = 0;
  while (i < n) {
    const bool dense = i >= anomaly_begin && i < anomaly_end;
    const double gap_mean = dense ? 8.0 : 25.0;
    i += 2 + static_cast<std::size_t>(rng.Exponential(1.0 / gap_mean));
    if (i >= n) break;
    x[i] += 1.0 + rng.Uniform(-0.1, 0.1);
  }
  return LabeledSeries("art_increase_spike_density", std::move(x),
                       {{anomaly_begin, anomaly_end}}, 0);
}

LabeledSeries GenerateAdExchange(const NumentaConfig& config) {
  constexpr std::size_t n = 1600;
  Rng rng(config.seed + 2);
  Series x = Mix({MeanRevertingWalk(n, 80.0, 1.2, 0.05, rng),
                  Sinusoid(n, 288.0, 8.0, 0.3),
                  GaussianNoise(n, 1.5, rng)});
  std::vector<AnomalyRegion> anomalies;
  const std::size_t num = 3;
  for (std::size_t a = 0; a < num; ++a) {
    const std::size_t pos =
        (a + 1) * n / (num + 1) +
        static_cast<std::size_t>(rng.UniformInt(0, 40));
    anomalies.push_back(
        InjectSpike(x, pos, (rng.Bernoulli(0.5) ? 1.0 : -1.0) *
                                rng.Uniform(35.0, 50.0)));
  }
  return LabeledSeries("ad_exchange", std::move(x), std::move(anomalies), 0);
}

BenchmarkDataset GenerateNumentaDataset(const NumentaConfig& config) {
  BenchmarkDataset dataset;
  dataset.name = "Numenta";
  dataset.series.push_back(GenerateArtSpikeDensity(config));
  dataset.series.push_back(GenerateAdExchange(config));
  dataset.series.push_back(GenerateTaxiData(config).series);
  return dataset;
}

}  // namespace tsad
