#include "detectors/streaming_discord.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"
#include "common/vector_ops.h"
#include "datasets/generators.h"
#include "scoring/ucr_score.h"
#include "substrates/matrix_profile.h"

namespace tsad {
namespace {

double EuclideanDistance(const std::vector<double>& a,
                         const std::vector<double>& b) {
  long double acc = 0.0L;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const long double d = static_cast<long double>(a[i]) - b[i];
    acc += d * d;
  }
  return std::sqrt(static_cast<double>(acc));
}

Series PeriodicWithDistortion(std::size_t n, std::size_t weird_at,
                              uint64_t seed) {
  Rng rng(seed);
  Series x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(2.0 * 3.14159265 * static_cast<double>(i) / 50.0) +
           rng.Gaussian(0.0, 0.02);
  }
  InjectTimeWarp(x, weird_at, 100, 1.7);
  return x;
}

TEST(LeftMatrixProfileTest, EarlyEntriesHaveNoNeighbor) {
  Rng rng(1);
  Series x(300);
  for (double& v : x) v = rng.Gaussian();
  Result<MatrixProfile> left = ComputeLeftMatrixProfile(x, 20);
  ASSERT_TRUE(left.ok());
  // exclusion defaults to m/2 = 10: entries 0..10 have no past neighbor.
  for (std::size_t i = 0; i <= 10; ++i) {
    EXPECT_FALSE(std::isfinite(left->distances[i]));
    EXPECT_EQ(left->indices[i], kNoNeighbor);
  }
  EXPECT_TRUE(std::isfinite(left->distances[11]));
}

TEST(LeftMatrixProfileTest, NeighborsAreStrictlyInThePast) {
  Rng rng(2);
  Series x(400);
  for (double& v : x) v = rng.Gaussian();
  const std::size_t m = 16;
  Result<MatrixProfile> left = ComputeLeftMatrixProfile(x, m);
  ASSERT_TRUE(left.ok());
  for (std::size_t i = 0; i < left->size(); ++i) {
    if (left->indices[i] == kNoNeighbor) continue;
    EXPECT_LE(left->indices[i] + m / 2 + 1, i) << "i=" << i;
  }
}

TEST(LeftMatrixProfileTest, UpperBoundsTheFullProfile) {
  // The left NN search space is a subset of the full (bidirectional)
  // search space, so left distances can never be smaller.
  Rng rng(3);
  Series x(350);
  for (double& v : x) v = rng.Gaussian();
  const std::size_t m = 20;
  Result<MatrixProfile> left = ComputeLeftMatrixProfile(x, m);
  Result<MatrixProfile> full = ComputeMatrixProfile(x, m);
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(full.ok());
  for (std::size_t i = 0; i < full->size(); ++i) {
    if (!std::isfinite(left->distances[i])) continue;
    EXPECT_GE(left->distances[i] + 1e-9, full->distances[i]) << "i=" << i;
  }
}

TEST(LeftMatrixProfileTest, MatchesNaivePastOnlySearch) {
  Rng rng(4);
  Series x(220);
  for (double& v : x) v = rng.Uniform(-1, 1);
  const std::size_t m = 12;
  const std::size_t exclusion = m / 2;
  Result<MatrixProfile> left = ComputeLeftMatrixProfile(x, m);
  ASSERT_TRUE(left.ok());
  const std::size_t count = NumSubsequences(x.size(), m);
  for (std::size_t i = exclusion + 1; i < count; i += 13) {
    const auto zi = ZNormalize(Subsequence(x, i, m));
    double best = 1e300;
    for (std::size_t j = 0; j + exclusion + 1 <= i; ++j) {
      best = std::min(best,
                      EuclideanDistance(zi, ZNormalize(Subsequence(x, j, m))));
    }
    EXPECT_NEAR(left->distances[i], best, 1e-6) << "i=" << i;
  }
}

TEST(StreamingDiscordTest, FlagsNovelShapeWhenItCompletes) {
  const Series x = PeriodicWithDistortion(2500, 1800, 5);
  StreamingDiscordDetector detector(50);
  Result<std::vector<double>> scores = detector.Score(x, 0);
  ASSERT_TRUE(scores.ok());
  ASSERT_EQ(scores->size(), x.size());
  const std::size_t peak = PredictLocation(*scores, 400);
  EXPECT_TRUE(UcrCorrect({1800, 1900}, peak)) << "peak=" << peak;
}

TEST(StreamingDiscordTest, BurnInIsSilent) {
  const Series x = PeriodicWithDistortion(2500, 1800, 6);
  StreamingDiscordDetector detector(50);  // burn_in defaults to 200
  Result<std::vector<double>> scores = detector.Score(x, 0);
  ASSERT_TRUE(scores.ok());
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_DOUBLE_EQ((*scores)[i], 0.0);
  }
}

TEST(StreamingDiscordTest, CausalScoresIgnoreTheFuture) {
  // Scoring a prefix must give the same track as scoring the whole
  // series truncated — the detector never peeks ahead.
  const Series x = PeriodicWithDistortion(2000, 1500, 7);
  const Series prefix(x.begin(), x.begin() + 1200);
  StreamingDiscordDetector detector(40);
  Result<std::vector<double>> full = detector.Score(x, 0);
  Result<std::vector<double>> part = detector.Score(prefix, 0);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(part.ok());
  // All points whose window completed inside the prefix agree.
  for (std::size_t i = 0; i + 40 < 1200; ++i) {
    EXPECT_NEAR((*full)[i], (*part)[i], 1e-9) << "i=" << i;
  }
}

TEST(StreamingDiscordTest, BurnInZeroMeansDefaultFourM) {
  // burn_in=0 is NOT "no burn-in": it selects the documented default of
  // 4*m points. Passing 1 is the way to genuinely disable suppression.
  EXPECT_EQ(StreamingDiscordDetector(50).burn_in(), 200u);
  EXPECT_EQ(StreamingDiscordDetector(50, 0).burn_in(), 200u);
  EXPECT_EQ(StreamingDiscordDetector(50, 123).burn_in(), 123u);
  EXPECT_EQ(StreamingDiscordDetector(50, 1).burn_in(), 1u);

  // With burn_in=1, the early profile entries show through: the first
  // finite left-profile distance (at index m + m/2) is scored.
  const Series x = PeriodicWithDistortion(600, 400, 9);
  Result<std::vector<double>> eager =
      StreamingDiscordDetector(20, 1).Score(x, 0);
  Result<std::vector<double>> deflt = StreamingDiscordDetector(20).Score(x, 0);
  ASSERT_TRUE(eager.ok());
  ASSERT_TRUE(deflt.ok());
  EXPECT_GT((*eager)[35], 0.0);       // m + m/2 + first emission offsets
  EXPECT_DOUBLE_EQ((*deflt)[35], 0.0);  // still inside the 80-point default
  // Outside both burn-ins the tracks are identical.
  for (std::size_t i = 80; i < x.size(); ++i) {
    EXPECT_DOUBLE_EQ((*eager)[i], (*deflt)[i]) << "i=" << i;
  }
}

TEST(StreamingDiscordTest, RejectsDegenerateSubsequenceLength) {
  const Series x = PeriodicWithDistortion(500, 300, 10);
  for (std::size_t m : {0u, 1u, 2u}) {
    Result<std::vector<double>> scores =
        StreamingDiscordDetector(m).Score(x, 0);
    ASSERT_FALSE(scores.ok()) << "m=" << m;
    EXPECT_EQ(scores.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(scores.status().message().find("m >= 3"), std::string::npos);
    EXPECT_NE(scores.status().message().find("exclusion zone"),
              std::string::npos);
  }
  // m = 3 is the floor and works.
  EXPECT_TRUE(StreamingDiscordDetector(3, 1).Score(x, 0).ok());
}

TEST(StreamingDiscordTest, RejectsSeriesShorterThanTwoSubsequences) {
  Series x(40, 1.0);
  Result<std::vector<double>> scores = StreamingDiscordDetector(40).Score(x, 0);
  ASSERT_FALSE(scores.ok());
  EXPECT_EQ(scores.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(scores.status().message().find("2 subsequences"),
            std::string::npos);
  x.push_back(1.0);  // n = m + 1: exactly two subsequences — accepted
  EXPECT_TRUE(StreamingDiscordDetector(40).Score(x, 0).ok());
}

TEST(StreamingDiscordTest, RepetitionScoresLowerThanFirstOccurrence) {
  // Plant the same distorted cycle twice; the second occurrence has a
  // past match and must score much lower than the first.
  Rng rng(8);
  Series x(3000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(2.0 * 3.14159265 * static_cast<double>(i) / 50.0) +
           rng.Gaussian(0.0, 0.01);
  }
  // Identical foreign shape at 1000 and 2000.
  for (std::size_t i = 0; i < 60; ++i) {
    const double bump = std::sin(3.14159265 * static_cast<double>(i) / 60.0);
    x[1000 + i] += 1.5 * bump;
    x[2000 + i] += 1.5 * bump;
  }
  StreamingDiscordDetector detector(60);
  Result<std::vector<double>> scores = detector.Score(x, 0);
  ASSERT_TRUE(scores.ok());
  double first = 0.0, second = 0.0;
  for (std::size_t i = 990; i < 1080; ++i) first = std::max(first, (*scores)[i]);
  for (std::size_t i = 1990; i < 2080; ++i) {
    second = std::max(second, (*scores)[i]);
  }
  EXPECT_GT(first, 2.0 * second);
}

}  // namespace
}  // namespace tsad
