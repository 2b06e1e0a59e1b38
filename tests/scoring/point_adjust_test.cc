#include "scoring/point_adjust.h"

#include <gtest/gtest.h>

#include <random>

#include "confusion_oracle.h"

namespace tsad {
namespace {

using testing::BestPointAdjustedF1Direct;
using testing::ComputeConfusion;
using testing::ComputePointAdjustedConfusion;
using testing::PointAdjustPredictions;

TEST(PointAdjustTest, OneHitExpandsToWholeRegion) {
  const std::vector<uint8_t> truth = {0, 1, 1, 1, 1, 0};
  const std::vector<uint8_t> pred = {0, 0, 0, 1, 0, 0};
  const auto adjusted = PointAdjustPredictions(truth, pred);
  EXPECT_EQ(adjusted, (std::vector<uint8_t>{0, 1, 1, 1, 1, 0}));
}

TEST(PointAdjustTest, MissedRegionStaysMissed) {
  const std::vector<uint8_t> truth = {1, 1, 0, 1, 1};
  const std::vector<uint8_t> pred = {0, 0, 0, 0, 1};
  const auto adjusted = PointAdjustPredictions(truth, pred);
  EXPECT_EQ(adjusted, (std::vector<uint8_t>{0, 0, 0, 1, 1}));
}

TEST(PointAdjustTest, FalsePositivesAreKept) {
  const std::vector<uint8_t> truth = {0, 0, 0};
  const std::vector<uint8_t> pred = {0, 1, 0};
  EXPECT_EQ(PointAdjustPredictions(truth, pred), pred);
}

TEST(PointAdjustConfusionTest, InflatesRecallDramatically) {
  // The §2.3 pathology: a huge labeled region + one lucky point.
  std::vector<uint8_t> truth(1000, 0), pred(1000, 0);
  for (std::size_t i = 200; i < 700; ++i) truth[i] = 1;  // 500-pt region
  pred[450] = 1;  // one lucky hit
  Result<Confusion> raw = ComputeConfusion(truth, pred);
  Result<Confusion> adjusted = ComputePointAdjustedConfusion(truth, pred);
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(adjusted.ok());
  EXPECT_NEAR(raw->recall(), 1.0 / 500.0, 1e-9);
  EXPECT_DOUBLE_EQ(adjusted->recall(), 1.0);  // 500x inflation
  EXPECT_DOUBLE_EQ(adjusted->f1(), 1.0);
}

TEST(BestPointAdjustedF1Test, BeatsPlainBestF1) {
  std::vector<uint8_t> truth(200, 0);
  for (std::size_t i = 50; i < 150; ++i) truth[i] = 1;
  std::vector<double> scores(200, 0.0);
  scores[100] = 1.0;   // single score spike inside the region
  scores[180] = 0.5;   // distractor outside
  Result<BestF1> plain = BestF1OverThresholds(truth, scores);
  Result<BestF1> adjusted = BestPointAdjustedF1(truth, scores);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(adjusted.ok());
  EXPECT_GT(adjusted->f1, plain->f1);
  EXPECT_DOUBLE_EQ(adjusted->f1, 1.0);
}

TEST(BestPointAdjustedF1Test, RejectsLengthMismatch) {
  EXPECT_FALSE(BestPointAdjustedF1({1}, {0.5, 0.2}).ok());
  EXPECT_FALSE(BestPointAdjustedF1Direct({1}, {0.5, 0.2}).ok());
  EXPECT_FALSE(ComputePointAdjustedConfusion({1}, {1, 0}).ok());
}

// The incremental sweep must be bit-identical to the direct recompute-
// per-threshold oracle: same f1, same threshold, same confusion counts.
void ExpectSweepMatchesDirect(const std::vector<uint8_t>& truth,
                              const std::vector<double>& scores) {
  Result<BestF1> sweep = BestPointAdjustedF1(truth, scores);
  Result<BestF1> direct = BestPointAdjustedF1Direct(truth, scores);
  ASSERT_TRUE(sweep.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(sweep->f1, direct->f1);  // bit-identical, not NEAR
  EXPECT_EQ(sweep->threshold, direct->threshold);
  EXPECT_EQ(sweep->confusion.tp, direct->confusion.tp);
  EXPECT_EQ(sweep->confusion.fp, direct->confusion.fp);
  EXPECT_EQ(sweep->confusion.fn, direct->confusion.fn);
  EXPECT_EQ(sweep->confusion.tn, direct->confusion.tn);
}

TEST(BestPointAdjustedF1Test, SweepMatchesDirectOracleOnRandomTracks) {
  std::mt19937_64 rng(12345);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 50 + rng() % 400;
    std::vector<uint8_t> truth(n, 0);
    // Plant a few random regions (possibly none).
    const std::size_t regions = rng() % 4;
    for (std::size_t r = 0; r < regions; ++r) {
      const std::size_t begin = rng() % n;
      const std::size_t len = 1 + rng() % 30;
      for (std::size_t i = begin; i < std::min(n, begin + len); ++i) {
        truth[i] = 1;
      }
    }
    std::vector<double> scores(n);
    std::uniform_real_distribution<double> uniform(0.0, 1.0);
    for (double& s : scores) s = uniform(rng);
    ExpectSweepMatchesDirect(truth, scores);
  }
}

TEST(BestPointAdjustedF1Test, SweepMatchesDirectOracleWithTies) {
  std::mt19937_64 rng(6789);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 50 + rng() % 200;
    std::vector<uint8_t> truth(n, 0);
    for (std::size_t i = n / 4; i < n / 3; ++i) truth[i] = 1;
    for (std::size_t i = n / 2; i < n / 2 + 5 && i < n; ++i) truth[i] = 1;
    // Heavily quantized scores force large tie groups at every level.
    std::vector<double> scores(n);
    for (double& s : scores) s = static_cast<double>(rng() % 5) / 4.0;
    ExpectSweepMatchesDirect(truth, scores);
  }
}

TEST(BestPointAdjustedF1Test, SweepMatchesDirectOracleDegenerate) {
  // All-normal truth: no threshold can yield tp > 0, best stays 0.
  ExpectSweepMatchesDirect(std::vector<uint8_t>(40, 0),
                           std::vector<double>(40, 0.5));
  // All-anomalous truth: the top score alone flips everything.
  {
    std::vector<uint8_t> truth(40, 1);
    std::vector<double> scores(40, 0.0);
    scores[7] = 1.0;
    ExpectSweepMatchesDirect(truth, scores);
  }
  // Constant scores: a single tie group covering the whole series.
  {
    std::vector<uint8_t> truth(40, 0);
    for (std::size_t i = 10; i < 20; ++i) truth[i] = 1;
    ExpectSweepMatchesDirect(truth, std::vector<double>(40, 3.25));
  }
  // Empty inputs.
  ExpectSweepMatchesDirect({}, {});
}

}  // namespace
}  // namespace tsad
