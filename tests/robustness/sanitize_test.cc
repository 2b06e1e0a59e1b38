#include "robustness/sanitize.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "tsad.h"

namespace tsad {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ScanForMissingTest, CountsEachKind) {
  const Series x = {1.0, kNan, 2.0, kInf, -kInf, kDefaultSentinel, 3.0};
  const MissingScan scan = ScanForMissing(x);
  EXPECT_EQ(scan.n, 7u);
  EXPECT_EQ(scan.num_nan, 1u);
  EXPECT_EQ(scan.num_inf, 2u);
  EXPECT_EQ(scan.num_sentinel, 1u);
  EXPECT_EQ(scan.num_missing(), 4u);
  EXPECT_NEAR(scan.missing_fraction(), 4.0 / 7.0, 1e-12);
}

TEST(ScanForMissingTest, LongestGapSpansMixedMarkers) {
  const Series x = {1.0, kNan, kDefaultSentinel, kNan, 2.0, kNan, 3.0};
  EXPECT_EQ(ScanForMissing(x).longest_gap, 3u);
}

TEST(SanitizeSeriesTest, CleanSeriesIsUntouched) {
  const Series x = {1.0, 2.0, 3.0};
  const Result<SanitizedSeries> s = SanitizeSeries(x);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->values, x);
  EXPECT_EQ(s->scan.num_missing(), 0u);
}

TEST(SanitizeSeriesTest, LinearInterpolationBridgesInteriorGap) {
  const Series x = {1.0, kNan, kNan, kNan, 5.0, 6.0, 7.0};
  const Result<SanitizedSeries> s = SanitizeSeries(x);
  ASSERT_TRUE(s.ok());
  const Series expected = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0};
  ASSERT_EQ(s->values.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(s->values[i], expected[i], 1e-12) << i;
  }
}

TEST(SanitizeSeriesTest, EdgeGapsUseNearestObservation) {
  const Series x = {kNan, kNan, 4.0, 5.0, 6.0, kDefaultSentinel};
  const Result<SanitizedSeries> s = SanitizeSeries(x);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->values, (Series{4.0, 4.0, 4.0, 5.0, 6.0, 6.0}));
}

TEST(SanitizeSeriesTest, EmptySeriesSanitizesToEmpty) {
  const Result<SanitizedSeries> s = SanitizeSeries({});
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->values.empty());
}

TEST(SanitizeSeriesTest, AllMissingIsResourceExhausted) {
  const Result<SanitizedSeries> s =
      SanitizeSeries({kNan, kDefaultSentinel, kNan});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kResourceExhausted);
}

TEST(SanitizeSeriesTest, DamageLimitEnforced) {
  // 50% missing is accepted: kMaxMissingFraction is an inclusive limit.
  const Series half = {1.0, kNan, kNan, kNan, 5.0, 6.0, 7.0, kNan};
  const Result<SanitizedSeries> allowed = SanitizeSeries(half);
  ASSERT_TRUE(allowed.ok());
  EXPECT_EQ(allowed->values, (Series{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 7.0}));

  const Series x = {1.0, kNan, kNan, kNan, 5.0};  // 60% missing
  const Result<SanitizedSeries> refused = SanitizeSeries(x);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
}

TEST(SanitizeScoresTest, PatchesNonFiniteInPlace) {
  std::vector<double> scores = {1.0, kNan, 2.0, kInf, -kInf};
  EXPECT_EQ(SanitizeScores(scores), 3u);
  EXPECT_EQ(scores, (std::vector<double>{1.0, 0.0, 2.0, 0.0, 0.0}));
  EXPECT_EQ(SanitizeScores(scores), 0u);  // idempotent
}

}  // namespace
}  // namespace tsad
