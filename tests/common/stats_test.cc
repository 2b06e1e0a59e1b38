#include "common/stats.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace tsad {
namespace {

TEST(MeanVarianceTest, KnownValues) {
  const std::vector<double> x = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(x), 5.0);
  EXPECT_DOUBLE_EQ(Variance(x), 4.0);
  EXPECT_DOUBLE_EQ(StdDev(x), 2.0);
}

TEST(MeanTest, EmptyInputsAreZero) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({}), 0.0);
}

TEST(MinMaxTest, Extremes) {
  EXPECT_DOUBLE_EQ(Min({3, -1, 2}), -1.0);
  EXPECT_DOUBLE_EQ(Max({3, -1, 2}), 3.0);
  EXPECT_TRUE(std::isinf(Min({})));
  EXPECT_TRUE(std::isinf(Max({})));
}

TEST(MedianTest, OddAndEven) {
  EXPECT_DOUBLE_EQ(Median({5, 1, 3}), 3.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
  EXPECT_DOUBLE_EQ(Median({7}), 7.0);
}

TEST(MadTest, RobustSpread) {
  // median = 3; |x - 3| = {2,1,0,1,2}; MAD = 1.
  EXPECT_DOUBLE_EQ(Mad({1, 2, 3, 4, 5}), 1.0);
  // One huge outlier barely moves the MAD.
  EXPECT_DOUBLE_EQ(Mad({1, 2, 3, 4, 1000}), 1.0);
}

TEST(QuantileTest, InterpolatesLinearly) {
  const std::vector<double> x = {0, 10};
  EXPECT_DOUBLE_EQ(Quantile(x, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(Quantile(x, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(x, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(Quantile({1, 2, 3, 4}, 0.25), 1.75);
}

TEST(QuantileTest, ClampsOutOfRangeQ) {
  EXPECT_DOUBLE_EQ(Quantile({1, 2}, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile({1, 2}, 2.0), 2.0);
}

TEST(AutocorrelationTest, PerfectlyPeriodicSignal) {
  std::vector<double> x(200);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(2.0 * 3.14159265 * static_cast<double>(i) / 20.0);
  }
  EXPECT_NEAR(Autocorrelation(x, 20), 1.0, 0.12);  // lag = period
  EXPECT_NEAR(Autocorrelation(x, 10), -1.0, 0.12);  // half period
  EXPECT_DOUBLE_EQ(Autocorrelation(x, x.size()), 0.0);
}

TEST(AutocorrelationTest, ConstantSeriesIsZero) {
  EXPECT_DOUBLE_EQ(Autocorrelation(std::vector<double>(50, 2.0), 1), 0.0);
}

TEST(ComplexityEstimateTest, WigglierIsLarger) {
  std::vector<double> smooth(100), wiggly(100);
  for (std::size_t i = 0; i < 100; ++i) {
    smooth[i] = static_cast<double>(i) * 0.01;
    wiggly[i] = (i % 2 == 0) ? 1.0 : -1.0;
  }
  EXPECT_GT(ComplexityEstimate(wiggly), ComplexityEstimate(smooth));
}

TEST(PearsonTest, PerfectCorrelation) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {10, 20, 30}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {30, 20, 10}), -1.0, 1e-12);
}

TEST(PearsonTest, UndefinedIsZero) {
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1}, {2}), 0.0);
}

TEST(ProfileRegionTest, ComputesTheFig6Checklist) {
  std::vector<double> x(100);
  for (std::size_t i = 0; i < 100; ++i) x[i] = static_cast<double>(i % 10);
  const RegionProfile p = ProfileRegion(x, 10, 20);
  EXPECT_DOUBLE_EQ(p.mean, 4.5);
  EXPECT_DOUBLE_EQ(p.min, 0.0);
  EXPECT_DOUBLE_EQ(p.max, 9.0);
  EXPECT_GT(p.variance, 0.0);
}

TEST(ProfileRegionTest, ClipsOutOfRange) {
  const RegionProfile p = ProfileRegion({1, 2, 3}, 2, 99);
  EXPECT_DOUBLE_EQ(p.mean, 3.0);
}

}  // namespace
}  // namespace tsad
