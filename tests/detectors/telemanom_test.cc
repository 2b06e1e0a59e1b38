#include "detectors/telemanom.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datasets/generators.h"

namespace tsad {
namespace {

Series PredictableSignalWithAnomaly(std::size_t n, std::size_t anomaly_at,
                                    uint64_t seed) {
  Rng rng(seed);
  Series x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(2.0 * 3.14159265 * static_cast<double>(i) / 40.0) +
           0.3 * std::sin(2.0 * 3.14159265 * static_cast<double>(i) / 13.0) +
           rng.Gaussian(0.0, 0.02);
  }
  for (std::size_t i = anomaly_at; i < anomaly_at + 30 && i < n; ++i) {
    x[i] += 1.5;  // sustained excursion the AR model cannot predict
  }
  return x;
}

TEST(ArPredictorTest, LearnsALinearRecurrence) {
  // x[t] = 0.8*x[t-1] + 0.1 is exactly representable.
  Series x(500);
  x[0] = 1.0;
  for (std::size_t t = 1; t < x.size(); ++t) x[t] = 0.8 * x[t - 1] + 0.1;
  Result<ArPredictor> p = ArPredictor::Fit(x, 4, 1e-6);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  const auto pred = p->Predict(x);
  for (std::size_t t = 10; t < x.size(); ++t) {
    EXPECT_NEAR(pred[t], x[t], 1e-6);
  }
}

TEST(ArPredictorTest, RejectsTooShortTraining) {
  EXPECT_FALSE(ArPredictor::Fit(Series(20, 1.0), 16).ok());
  EXPECT_FALSE(ArPredictor::Fit(Series(100, 1.0), 0).ok());
}

TEST(ArPredictorTest, PredictsSinusoidWell) {
  Series x(600);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(2.0 * 3.14159265 * static_cast<double>(i) / 50.0);
  }
  Result<ArPredictor> p = ArPredictor::Fit(x, 8);
  ASSERT_TRUE(p.ok());
  const auto pred = p->Predict(x);
  double worst = 0.0;
  for (std::size_t t = 8; t < x.size(); ++t) {
    worst = std::max(worst, std::fabs(pred[t] - x[t]));
  }
  EXPECT_LT(worst, 0.01);
}

TEST(TelemanomDetectorTest, RequiresTrainingPrefix) {
  TelemanomDetector detector;
  Result<std::vector<double>> scores =
      detector.Score(Series(5000, 1.0), 0);
  ASSERT_FALSE(scores.ok());
  EXPECT_EQ(scores.status().code(), StatusCode::kFailedPrecondition);
}

TEST(TelemanomDetectorTest, ScoresPeakAtAnomaly) {
  const Series x = PredictableSignalWithAnomaly(4000, 2500, 7);
  TelemanomDetector detector;
  Result<std::vector<double>> scores = detector.Score(x, 1000);
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  const std::size_t peak = PredictLocation(*scores, 1000);
  EXPECT_GE(peak + 50, 2500u);
  EXPECT_LE(peak, 2580u);
}

}  // namespace
}  // namespace tsad
