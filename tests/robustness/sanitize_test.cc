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

TEST(ScanForMissingTest, CustomSentinel) {
  const Series x = {0.0, -1.0, 0.0};
  EXPECT_EQ(ScanForMissing(x, -1.0).num_sentinel, 1u);
  EXPECT_EQ(ScanForMissing(x).num_sentinel, 0u);
}

TEST(SanitizeSeriesTest, CleanSeriesIsUntouched) {
  const Series x = {1.0, 2.0, 3.0};
  const Result<SanitizedSeries> s =
      SanitizeSeries(x, ImputationPolicy::kLinearInterpolate);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->values, x);
  EXPECT_FALSE(s->reindexed());
  EXPECT_EQ(s->scan.num_missing(), 0u);
}

TEST(SanitizeSeriesTest, LinearInterpolationBridgesInteriorGap) {
  const Series x = {1.0, kNan, kNan, kNan, 5.0};
  const Result<SanitizedSeries> s =
      SanitizeSeries(x, ImputationPolicy::kLinearInterpolate);
  ASSERT_TRUE(s.ok());
  const Series expected = {1.0, 2.0, 3.0, 4.0, 5.0};
  ASSERT_EQ(s->values.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(s->values[i], expected[i], 1e-12) << i;
  }
}

TEST(SanitizeSeriesTest, EdgeGapsUseNearestObservation) {
  const Series x = {kNan, kNan, 4.0, kDefaultSentinel};
  for (ImputationPolicy policy : {ImputationPolicy::kLinearInterpolate,
                                  ImputationPolicy::kLocf}) {
    const Result<SanitizedSeries> s = SanitizeSeries(x, policy);
    ASSERT_TRUE(s.ok()) << static_cast<int>(policy);
    EXPECT_EQ(s->values, (Series{4.0, 4.0, 4.0, 4.0}))
        << static_cast<int>(policy);
  }
}

TEST(SanitizeSeriesTest, LocfCarriesLastObservationForward) {
  const Series x = {1.0, kNan, kNan, 7.0, kNan};
  const Result<SanitizedSeries> s = SanitizeSeries(x, ImputationPolicy::kLocf);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->values, (Series{1.0, 1.0, 1.0, 7.0, 7.0}));
}

TEST(SanitizeSeriesTest, DropAndReindexKeepsOnlyObserved) {
  const Series x = {1.0, kNan, 3.0, kDefaultSentinel, 5.0};
  const Result<SanitizedSeries> s =
      SanitizeSeries(x, ImputationPolicy::kDropAndReindex);
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->reindexed());
  EXPECT_EQ(s->values, (Series{1.0, 3.0, 5.0}));
  EXPECT_EQ(s->kept, (std::vector<std::size_t>{0, 2, 4}));
}

TEST(SanitizeSeriesTest, MapTrainLengthCountsKeptPrefix) {
  const Series x = {1.0, kNan, 3.0, kNan, 5.0, 6.0};
  const Result<SanitizedSeries> s =
      SanitizeSeries(x, ImputationPolicy::kDropAndReindex);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->MapTrainLength(0), 0u);
  EXPECT_EQ(s->MapTrainLength(1), 1u);  // kept: index 0
  EXPECT_EQ(s->MapTrainLength(2), 1u);  // index 1 was dropped
  EXPECT_EQ(s->MapTrainLength(4), 2u);  // indices 0 and 2 kept
  EXPECT_EQ(s->MapTrainLength(6), 4u);
}

TEST(SanitizeSeriesTest, ExpandScoresFillsDroppedPositionsWithZero) {
  const Series x = {1.0, kNan, 3.0, kNan, 5.0};
  const Result<SanitizedSeries> s =
      SanitizeSeries(x, ImputationPolicy::kDropAndReindex);
  ASSERT_TRUE(s.ok());
  const std::vector<double> expanded =
      s->ExpandScores({10.0, 20.0, 30.0}, x.size());
  EXPECT_EQ(expanded, (std::vector<double>{10.0, 0.0, 20.0, 0.0, 30.0}));
}

TEST(SanitizeSeriesTest, IdentityMappingWhenNotReindexed) {
  const Series x = {1.0, kNan, 3.0};
  const Result<SanitizedSeries> s =
      SanitizeSeries(x, ImputationPolicy::kLinearInterpolate);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->MapTrainLength(2), 2u);
  EXPECT_EQ(s->ExpandScores({1.0, 2.0, 3.0}, 3),
            (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(SanitizeSeriesTest, EmptySeriesSanitizesToEmpty) {
  const Result<SanitizedSeries> s =
      SanitizeSeries({}, ImputationPolicy::kLinearInterpolate);
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->values.empty());
}

TEST(SanitizeSeriesTest, AllMissingIsResourceExhausted) {
  const Series x = {kNan, kDefaultSentinel, kNan};
  for (ImputationPolicy policy :
       {ImputationPolicy::kLinearInterpolate, ImputationPolicy::kLocf,
        ImputationPolicy::kDropAndReindex}) {
    const Result<SanitizedSeries> s = SanitizeSeries(x, policy);
    ASSERT_FALSE(s.ok()) << static_cast<int>(policy);
    EXPECT_EQ(s.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST(SanitizeSeriesTest, DamageLimitEnforced) {
  const Series x = {1.0, kNan, kNan, kNan, 5.0};  // 60% missing
  const Result<SanitizedSeries> refused = SanitizeSeries(
      x, ImputationPolicy::kLinearInterpolate, kDefaultSentinel, 0.5);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);

  const Result<SanitizedSeries> allowed = SanitizeSeries(
      x, ImputationPolicy::kLinearInterpolate, kDefaultSentinel, 0.9);
  EXPECT_TRUE(allowed.ok());
}

TEST(SanitizeScoresTest, PatchesNonFiniteInPlace) {
  std::vector<double> scores = {1.0, kNan, 2.0, kInf, -kInf};
  EXPECT_EQ(SanitizeScores(scores), 3u);
  EXPECT_EQ(scores, (std::vector<double>{1.0, 0.0, 2.0, 0.0, 0.0}));
  EXPECT_EQ(SanitizeScores(scores), 0u);  // idempotent
}

TEST(SanitizeScoresTest, CustomReplacement) {
  std::vector<double> scores = {kNan};
  EXPECT_EQ(SanitizeScores(scores, -1.0), 1u);
  EXPECT_EQ(scores[0], -1.0);
}

}  // namespace
}  // namespace tsad
