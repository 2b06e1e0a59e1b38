#include "scoring/confusion.h"

#include <gtest/gtest.h>

#include "confusion_oracle.h"

namespace tsad {
namespace {

using testing::ComputeConfusion;

TEST(ConfusionTest, CountsAllFourCells) {
  Result<Confusion> c = ComputeConfusion({1, 1, 0, 0, 1}, {1, 0, 1, 0, 1});
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->tp, 2u);
  EXPECT_EQ(c->fn, 1u);
  EXPECT_EQ(c->fp, 1u);
  EXPECT_EQ(c->tn, 1u);
}

TEST(ConfusionTest, RejectsLengthMismatch) {
  EXPECT_FALSE(ComputeConfusion({1, 0}, {1}).ok());
}

TEST(ConfusionMetricsTest, KnownValues) {
  Confusion c{/*tp=*/6, /*fp=*/2, /*fn=*/4, /*tn=*/8};
  EXPECT_DOUBLE_EQ(c.precision(), 0.75);
  EXPECT_DOUBLE_EQ(c.recall(), 0.6);
  EXPECT_NEAR(c.f1(), 2.0 * 0.75 * 0.6 / 1.35, 1e-12);
  EXPECT_DOUBLE_EQ(c.accuracy(), 0.7);
}

TEST(ConfusionMetricsTest, UndefinedMetricsAreZero) {
  Confusion c;
  EXPECT_DOUBLE_EQ(c.precision(), 0.0);
  EXPECT_DOUBLE_EQ(c.recall(), 0.0);
  EXPECT_DOUBLE_EQ(c.f1(), 0.0);
  EXPECT_DOUBLE_EQ(c.accuracy(), 0.0);
}

TEST(BestF1Test, FindsTheOmniscientThreshold) {
  // Scores: the two anomalous points have the top-2 scores.
  const std::vector<uint8_t> truth = {0, 0, 1, 1, 0};
  const std::vector<double> scores = {0.1, 0.2, 0.9, 0.8, 0.3};
  Result<BestF1> best = BestF1OverThresholds(truth, scores);
  ASSERT_TRUE(best.ok());
  EXPECT_DOUBLE_EQ(best->f1, 1.0);
  EXPECT_DOUBLE_EQ(best->threshold, 0.8);  // predict score >= 0.8
  EXPECT_EQ(best->confusion.tp, 2u);
  EXPECT_EQ(best->confusion.fp, 0u);
}

TEST(BestF1Test, ImperfectScoresGivePartialF1) {
  const std::vector<uint8_t> truth = {1, 0, 0, 0, 1};
  const std::vector<double> scores = {0.9, 0.8, 0.1, 0.1, 0.2};
  Result<BestF1> best = BestF1OverThresholds(truth, scores);
  ASSERT_TRUE(best.ok());
  // Best threshold is 0.2: predictions {0.9, 0.8, 0.2} give TP=2,
  // FP=1, FN=0 -> P=2/3, R=1, F1=0.8.
  EXPECT_NEAR(best->f1, 0.8, 1e-12);
}

TEST(BestF1Test, TiedScoresAdmittedTogether) {
  const std::vector<uint8_t> truth = {1, 0};
  const std::vector<double> scores = {0.5, 0.5};
  Result<BestF1> best = BestF1OverThresholds(truth, scores);
  ASSERT_TRUE(best.ok());
  // Can't separate the tie: both admitted -> P=0.5, R=1, F1=2/3.
  EXPECT_NEAR(best->f1, 2.0 / 3.0, 1e-12);
}

TEST(BestF1Test, AllNegativeTruthYieldsZero) {
  Result<BestF1> best =
      BestF1OverThresholds({0, 0, 0}, {0.5, 0.7, 0.9});
  ASSERT_TRUE(best.ok());
  EXPECT_DOUBLE_EQ(best->f1, 0.0);
}

TEST(BestF1Test, RejectsLengthMismatch) {
  EXPECT_FALSE(BestF1OverThresholds({1}, {0.5, 0.7}).ok());
}

}  // namespace
}  // namespace tsad
