#include "detectors/semisup_discord.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datasets/gait.h"
#include "datasets/generators.h"
#include "scoring/ucr_score.h"

namespace tsad {
namespace {

TEST(SemiSupDiscordTest, RequiresTrainingPrefix) {
  SemiSupervisedDiscordDetector detector(32);
  Result<std::vector<double>> scores = detector.Score(Series(500, 1.0), 0);
  ASSERT_FALSE(scores.ok());
  EXPECT_EQ(scores.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(detector.Score(Series(500, 1.0), 500).ok());  // no test span
}

TEST(SemiSupDiscordTest, FindsNovelBehavior) {
  Rng rng(1);
  Series x(3000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(0.1 * static_cast<double>(i)) + rng.Gaussian(0.0, 0.02);
  }
  InjectTimeWarp(x, 2000, 120, 1.6);
  SemiSupervisedDiscordDetector detector(63);
  Result<std::vector<double>> scores = detector.Score(x, 1000);
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  ASSERT_EQ(scores->size(), x.size());
  const std::size_t peak = PredictLocation(*scores, 1000);
  EXPECT_TRUE(UcrCorrect({2000, 2120}, peak)) << "peak=" << peak;
}

TEST(SemiSupDiscordTest, TrainingSpanScoresNearZero) {
  Rng rng(2);
  Series x(2000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(0.13 * static_cast<double>(i)) + rng.Gaussian(0.0, 0.02);
  }
  SemiSupervisedDiscordDetector detector(40);
  Result<std::vector<double>> scores = detector.Score(x, 800);
  ASSERT_TRUE(scores.ok());
  // Points well inside the training prefix match themselves.
  for (std::size_t i = 100; i < 700; i += 97) {
    EXPECT_LT((*scores)[i], 0.5) << "i=" << i;
  }
}

TEST(SemiSupDiscordTest, IgnoresBehaviorSeenInTraining) {
  // The gait dataset's §3.2 property: turnaround slow-downs appear in
  // both train and test, so the AB-join discounts them, and the swapped
  // cycle dominates.
  GaitConfig cfg;
  const GaitData gait = GenerateGaitData(cfg);
  SemiSupervisedDiscordDetector detector(kGaitCycleLength / 2);
  Result<std::vector<double>> scores = detector.Score(gait.series);
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  const std::size_t peak =
      PredictLocation(*scores, gait.series.train_length());
  EXPECT_TRUE(UcrCorrect(gait.series.anomalies().front(), peak))
      << "peak=" << peak;
}

TEST(SemiSupDiscordTest, NameReportsWindow) {
  SemiSupervisedDiscordDetector detector(80);
  EXPECT_EQ(detector.name(), "SemiSupDiscord[m=80]");
}

}  // namespace
}  // namespace tsad
