#include "detectors/multivariate.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datasets/generators.h"
#include "datasets/omni.h"
#include "detectors/moving_zscore.h"

namespace tsad {
namespace {

MultivariateSeries MakeMachine(uint64_t seed, std::size_t incident_dim) {
  Rng rng(seed);
  const std::size_t n = 1500;
  std::vector<Series> dims;
  for (std::size_t d = 0; d < 6; ++d) {
    dims.push_back(GaussianNoise(n, 1.0, rng));
  }
  // Incident: a big shift in one dimension only.
  const AnomalyRegion r{1000, 1060};
  for (std::size_t i = r.begin; i < r.end; ++i) {
    dims[incident_dim][i] += 8.0;
  }
  return MultivariateSeries("m", std::move(dims), {r}, 300);
}

TEST(MultivariateTest, MaxAggregationSeesSingleDimIncident) {
  const MultivariateSeries machine = MakeMachine(1, 3);
  MovingZScoreDetector detector(50);
  Result<std::vector<double>> scores = ScoreMultivariate(detector, machine);
  ASSERT_TRUE(scores.ok());
  ASSERT_EQ(scores->size(), machine.length());
  const std::size_t peak = PredictLocation(*scores, machine.train_length());
  EXPECT_GE(peak, 995u);
  EXPECT_LT(peak, 1070u);
}

TEST(MultivariateTest, EmptyMachineRejected) {
  MultivariateSeries empty;
  MovingZScoreDetector detector(50);
  EXPECT_FALSE(ScoreMultivariate(detector, empty).ok());
}

TEST(MultivariateTest, FindsOmniEasyIncidents) {
  OmniConfig config;
  config.num_machines = 4;
  config.num_dimensions = 12;
  config.machine_length = 2000;
  config.train_length = 500;
  const OmniArchive archive = GenerateOmniArchive(config);
  MovingZScoreDetector detector(60);
  std::size_t hits = 0, easy_total = 0;
  for (const MultivariateSeries& m : archive.machines) {
    bool is_easy = false;
    for (const std::string& name : archive.easy_machines) {
      if (name == m.name()) is_easy = true;
    }
    if (!is_easy) continue;
    ++easy_total;
    Result<std::vector<double>> scores = ScoreMultivariate(detector, m);
    if (!scores.ok()) continue;
    const std::size_t peak = PredictLocation(*scores, m.train_length());
    for (const AnomalyRegion& r : m.anomalies()) {
      const std::size_t lo = r.begin > 60 ? r.begin - 60 : 0;
      if (peak >= lo && peak < r.end + 60) {
        ++hits;
        break;
      }
    }
  }
  EXPECT_EQ(hits, easy_total);  // easy machines are easy
}

}  // namespace
}  // namespace tsad
