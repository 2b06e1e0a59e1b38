#include "scoring/ucr_score.h"

#include <gtest/gtest.h>

namespace tsad {
namespace {

TEST(UcrCorrectTest, InsideRegionIsCorrect) {
  const AnomalyRegion anomaly{5000, 5100};
  EXPECT_TRUE(UcrCorrect(anomaly, 5050));
  EXPECT_TRUE(UcrCorrect(anomaly, 5000));
  EXPECT_TRUE(UcrCorrect(anomaly, 5099));
}

TEST(UcrCorrectTest, SlopExtendsTheRegion) {
  const AnomalyRegion anomaly{5000, 5100};  // length 100 = slop floor
  EXPECT_TRUE(UcrCorrect(anomaly, 4900));   // begin - 100
  EXPECT_TRUE(UcrCorrect(anomaly, 5199));   // end + 100 - 1
  EXPECT_FALSE(UcrCorrect(anomaly, 4899));
  EXPECT_FALSE(UcrCorrect(anomaly, 5200));
}

TEST(UcrCorrectTest, SlopFloorHoldsForShortRegions) {
  // A region shorter than the floor: max(floor, length) is the floor
  // itself, so these four points pin it at exactly 100.
  const AnomalyRegion anomaly{5000, 5010};  // length 10 < slop floor
  EXPECT_TRUE(UcrCorrect(anomaly, 4900));   // begin - 100
  EXPECT_TRUE(UcrCorrect(anomaly, 5109));   // end + 100 - 1
  EXPECT_FALSE(UcrCorrect(anomaly, 4899));
  EXPECT_FALSE(UcrCorrect(anomaly, 5110));
}

TEST(UcrCorrectTest, SlopScalesWithLongRegions) {
  const AnomalyRegion anomaly{10000, 10500};  // length 500 > floor
  EXPECT_TRUE(UcrCorrect(anomaly, 9500));     // begin - 500
  EXPECT_FALSE(UcrCorrect(anomaly, 9499));
}

TEST(UcrCorrectTest, NearZeroRegionClampsLowBound) {
  const AnomalyRegion anomaly{20, 25};
  EXPECT_TRUE(UcrCorrect(anomaly, 0));  // begin - slop clamps to 0
}

TEST(ScoreUcrSeriesTest, RequiresExactlyOneAnomaly) {
  LabeledSeries two("two", Series(1000, 0.0), {{100, 110}, {500, 510}});
  EXPECT_FALSE(ScoreUcrSeries(two, 100).ok());
  LabeledSeries none("none", Series(1000, 0.0), {});
  EXPECT_FALSE(ScoreUcrSeries(none, 100).ok());
}

TEST(ScoreUcrSeriesTest, ScoresBinaryOutcome) {
  LabeledSeries s("one", Series(10000, 0.0), {{5000, 5050}});
  Result<UcrSeriesOutcome> hit = ScoreUcrSeries(s, 5020);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->correct);
  Result<UcrSeriesOutcome> miss = ScoreUcrSeries(s, 900);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->correct);
}

TEST(UcrAccuracyTest, AggregatesCorrectly) {
  UcrAccuracy acc;
  acc.total = 4;
  acc.correct = 3;
  EXPECT_DOUBLE_EQ(acc.accuracy(), 0.75);
  EXPECT_DOUBLE_EQ(UcrAccuracy{}.accuracy(), 0.0);
}

}  // namespace
}  // namespace tsad
