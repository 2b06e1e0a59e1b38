#include "common/vector_ops.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"

namespace tsad {
namespace {

TEST(DiffTest, MatlabSemantics) {
  EXPECT_EQ(Diff({3, 1, 4, 1, 5}), (std::vector<double>{-2, 3, -3, 4}));
  EXPECT_TRUE(Diff({7}).empty());
  EXPECT_TRUE(Diff({}).empty());
}

TEST(AbsTest, ElementWise) {
  EXPECT_EQ(Abs({-1, 2, -3}), (std::vector<double>{1, 2, 3}));
}

// MATLAB reference: movmean(1:6, 3) = [1.5 2 3 4 5 5.5]
TEST(MovMeanTest, MatchesMatlabOddWindow) {
  const auto out = MovMean({1, 2, 3, 4, 5, 6}, 3);
  const std::vector<double> expected = {1.5, 2, 3, 4, 5, 5.5};
  ASSERT_EQ(out.size(), expected.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out[i], expected[i], 1e-12) << "i=" << i;
  }
}

// MATLAB reference: movmean(1:6, 4) = [1.5 2 2.5 3.5 4.5 5]
TEST(MovMeanTest, MatchesMatlabEvenWindow) {
  const auto out = MovMean({1, 2, 3, 4, 5, 6}, 4);
  const std::vector<double> expected = {1.5, 2, 2.5, 3.5, 4.5, 5};
  ASSERT_EQ(out.size(), expected.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out[i], expected[i], 1e-12) << "i=" << i;
  }
}

TEST(MovMeanTest, WindowOneIsIdentity) {
  const std::vector<double> x = {3, 1, 4, 1, 5};
  EXPECT_EQ(MovMean(x, 1), x);
}

// MATLAB reference: movstd(1:5, 3) = [0.7071 1 1 1 0.7071]
TEST(MovStdTest, MatchesMatlab) {
  const auto out = MovStd({1, 2, 3, 4, 5}, 3);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_NEAR(out[0], std::sqrt(0.5), 1e-9);
  EXPECT_NEAR(out[1], 1.0, 1e-9);
  EXPECT_NEAR(out[2], 1.0, 1e-9);
  EXPECT_NEAR(out[4], std::sqrt(0.5), 1e-9);
}

TEST(MovStdTest, ConstantSeriesIsZero) {
  for (double v : MovStd(std::vector<double>(50, 3.25), 7)) {
    EXPECT_NEAR(v, 0.0, 1e-12);
  }
}

TEST(TrailingMeanTest, UsesOnlyHistory) {
  const auto out = TrailingMean({2, 4, 6, 8}, 2);
  EXPECT_NEAR(out[0], 2.0, 1e-12);
  EXPECT_NEAR(out[1], 3.0, 1e-12);
  EXPECT_NEAR(out[2], 5.0, 1e-12);
  EXPECT_NEAR(out[3], 7.0, 1e-12);
}

TEST(ZNormalizeTest, ZeroMeanUnitStd) {
  Rng rng(1);
  std::vector<double> x(500);
  for (double& v : x) v = rng.Uniform(-5, 20);
  const auto z = ZNormalize(x);
  EXPECT_NEAR(Mean(z), 0.0, 1e-9);
  EXPECT_NEAR(StdDev(z), 1.0, 1e-9);
}

TEST(ZNormalizeTest, ConstantSeriesCenteredOnly) {
  const auto z = ZNormalize(std::vector<double>(10, 4.0));
  for (double v : z) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(AddSubtractScaleTest, ElementWiseArithmetic) {
  EXPECT_EQ(Add({1, 2}, {3, 4}), (std::vector<double>{4, 6}));
  EXPECT_EQ(Subtract({3, 4}, {1, 1}), (std::vector<double>{2, 3}));
}

TEST(PadLeftTest, PrependsValue) {
  EXPECT_EQ(PadLeft({1, 2}, 2, -7),
            (std::vector<double>{-7, -7, 1, 2}));
}

TEST(EwmaTest, SmoothsTowardSignal) {
  const auto out = Ewma({0, 10, 10, 10}, 0.5);
  EXPECT_NEAR(out[0], 0.0, 1e-12);
  EXPECT_NEAR(out[1], 5.0, 1e-12);
  EXPECT_NEAR(out[2], 7.5, 1e-12);
  EXPECT_NEAR(out[3], 8.75, 1e-12);
}

// Sample (N-1) standard deviation of a window: the direct oracle for
// MovStd.
double SampleStdDev(const std::vector<double>& x) {
  if (x.size() < 2) return 0.0;
  const double m = Mean(x);
  long double acc = 0.0L;
  for (double v : x) acc += static_cast<long double>(v - m) * (v - m);
  return std::sqrt(
      static_cast<double>(acc / static_cast<long double>(x.size() - 1)));
}

// Property sweep: movmean/movstd agree with direct window computation
// for many window sizes.
class MovWindowProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MovWindowProperty, AgreesWithDirectComputation) {
  const std::size_t k = GetParam();
  Rng rng(k);
  std::vector<double> x(200);
  for (double& v : x) v = rng.Gaussian(3.0, 2.0);
  const auto mm = MovMean(x, k);
  const auto ms = MovStd(x, k);
  for (std::size_t i = 0; i < x.size(); i += 17) {
    const std::size_t before = k / 2, after = (k - 1) / 2;
    const std::size_t lo = i >= before ? i - before : 0;
    const std::size_t hi = std::min(x.size(), i + after + 1);
    const std::vector<double> window(x.begin() + static_cast<long>(lo),
                                     x.begin() + static_cast<long>(hi));
    EXPECT_NEAR(mm[i], Mean(window), 1e-9) << "k=" << k << " i=" << i;
    EXPECT_NEAR(ms[i], SampleStdDev(window), 1e-9) << "k=" << k << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, MovWindowProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 21, 50, 101,
                                           199, 200, 250));

}  // namespace
}  // namespace tsad
