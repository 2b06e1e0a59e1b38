#include "datasets/generators.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "common/vector_ops.h"

namespace tsad {
namespace {

TEST(SinusoidTest, PeriodAndAmplitude) {
  const Series x = Sinusoid(100, 20.0, 2.0, 0.0);
  EXPECT_NEAR(x[0], 0.0, 1e-9);
  EXPECT_NEAR(x[5], 2.0, 1e-9);   // quarter period
  EXPECT_NEAR(x[20], x[0], 1e-9);  // periodicity
  EXPECT_NEAR(Max(x), 2.0, 1e-6);
}

TEST(MeanRevertingWalkTest, StaysNearLevel) {
  Rng rng(1);
  const Series x = MeanRevertingWalk(5000, 10.0, 0.5, 0.1, rng);
  EXPECT_NEAR(Mean(x), 10.0, 1.5);
}

TEST(LinearTrendTest, SlopeIsExact) {
  const Series x = LinearTrend(10, 5.0, 0.5);
  EXPECT_DOUBLE_EQ(x[0], 5.0);
  EXPECT_DOUBLE_EQ(x[9], 9.5);
}

TEST(GaussianNoiseTest, Moments) {
  Rng rng(2);
  const Series x = GaussianNoise(20000, 3.0, rng);
  EXPECT_NEAR(Mean(x), 0.0, 0.1);
  EXPECT_NEAR(StdDev(x), 3.0, 0.1);
}

TEST(MixTest, AddsComponents) {
  const Series out = Mix({{1, 2}, {10, 20}, {100, 200}});
  EXPECT_EQ(out, (Series{111, 222}));
}

TEST(InjectSpikeTest, SinglePointRegion) {
  Series x(10, 0.0);
  const AnomalyRegion r = InjectSpike(x, 4, 5.0);
  EXPECT_EQ(r, (AnomalyRegion{4, 5}));
  EXPECT_DOUBLE_EQ(x[4], 5.0);
  EXPECT_DOUBLE_EQ(x[3], 0.0);
}

TEST(InjectSpikeTest, ClipsPosition) {
  Series x(5, 0.0);
  const AnomalyRegion r = InjectSpike(x, 99, 1.0);
  EXPECT_EQ(r, (AnomalyRegion{4, 5}));
}

TEST(InjectDropoutTest, ForcesFloorValue) {
  Series x(10, 5.0);
  const AnomalyRegion r = InjectDropout(x, 3, 2, -9999.0);
  EXPECT_EQ(r, (AnomalyRegion{3, 5}));
  EXPECT_DOUBLE_EQ(x[3], -9999.0);
  EXPECT_DOUBLE_EQ(x[4], -9999.0);
  EXPECT_DOUBLE_EQ(x[5], 5.0);
}

TEST(InjectLevelShiftTest, ShiftsEverythingAfter) {
  Series x(10, 1.0);
  const AnomalyRegion r = InjectLevelShift(x, 5, 2.0, 3);
  EXPECT_EQ(r, (AnomalyRegion{5, 8}));
  EXPECT_DOUBLE_EQ(x[4], 1.0);
  EXPECT_DOUBLE_EQ(x[5], 3.0);
  EXPECT_DOUBLE_EQ(x[9], 3.0);
}

TEST(InjectFreezeTest, RegionBecomesConstant) {
  Series x = {1, 2, 3, 4, 5, 6, 7, 8};
  const AnomalyRegion r = InjectFreeze(x, 2, 4);
  EXPECT_EQ(r, (AnomalyRegion{2, 6}));
  EXPECT_DOUBLE_EQ(x[2], 3.0);
  EXPECT_DOUBLE_EQ(x[5], 3.0);
  EXPECT_DOUBLE_EQ(x[6], 7.0);
}

TEST(InjectSmoothHumpTest, PeaksInTheMiddleAndVanishesAtEdges) {
  Series x(100, 0.0);
  InjectSmoothHump(x, 40, 20, 2.0);
  EXPECT_NEAR(x[50], 2.0, 0.05);
  EXPECT_LT(x[40], 0.4);
  EXPECT_DOUBLE_EQ(x[39], 0.0);
  EXPECT_DOUBLE_EQ(x[60], 0.0);
}

TEST(InjectTimeWarpTest, PreservesSeamContinuity) {
  Series x(400);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(2.0 * 3.14159265 * static_cast<double>(i) / 40.0);
  }
  const Series original = x;
  const AnomalyRegion r = InjectTimeWarp(x, 100, 120, 1.5);
  EXPECT_EQ(r, (AnomalyRegion{100, 220}));
  // Left seam: first warped point equals the original.
  EXPECT_NEAR(x[100], original[100], 1e-9);
  // Right seam: the jump into the untouched region stays within the
  // normal per-step range.
  const double seam_jump = std::fabs(x[220] - x[219]);
  EXPECT_LT(seam_jump, 0.3);
  // The warp changed the interior.
  double max_change = 0.0;
  for (std::size_t i = 110; i < 210; ++i) {
    max_change = std::max(max_change, std::fabs(x[i] - original[i]));
  }
  EXPECT_GT(max_change, 0.2);
}

TEST(InjectTimeWarpTest, TooSmallRegionIsNoop) {
  Series x(10, 1.0);
  const AnomalyRegion r = InjectTimeWarp(x, 2, 3, 1.5);
  EXPECT_EQ(r.length(), 0u);
}

TEST(ResampleTest, EndpointsPreserved) {
  const Series out = Resample({0, 1, 2, 3}, 7);
  ASSERT_EQ(out.size(), 7u);
  EXPECT_DOUBLE_EQ(out.front(), 0.0);
  EXPECT_DOUBLE_EQ(out.back(), 3.0);
  EXPECT_DOUBLE_EQ(out[2], 1.0);  // interpolated
}

TEST(ResampleTest, DegenerateInputs) {
  EXPECT_TRUE(Resample({}, 5).size() == 5);
  const Series single = Resample({7.0}, 3);
  EXPECT_EQ(single, (Series{7, 7, 7}));
}

TEST(PickPositionTest, StaysInBounds) {
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    const std::size_t pos = PickPosition(rng, 100, 1000, 50, 0.5);
    EXPECT_GE(pos, 100u);
    EXPECT_LT(pos, 1000u);
  }
}

TEST(PickPositionTest, EndBiasSkewsLate) {
  Rng rng(5);
  double uniform_sum = 0.0, biased_sum = 0.0;
  const int trials = 3000;
  for (int i = 0; i < trials; ++i) {
    uniform_sum += static_cast<double>(PickPosition(rng, 0, 1000, 1, 0.0));
    biased_sum += static_cast<double>(PickPosition(rng, 0, 1000, 1, 1.0));
  }
  EXPECT_NEAR(uniform_sum / trials, 500.0, 30.0);
  EXPECT_GT(biased_sum / trials, 700.0);
}

}  // namespace
}  // namespace tsad
