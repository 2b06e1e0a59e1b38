#include "scoring/range_pr.h"

#include <gtest/gtest.h>

namespace tsad {
namespace {

TEST(RangePrTest, PerfectMatchIsOne) {
  const std::vector<AnomalyRegion> regions = {{10, 20}, {50, 60}};
  const RangePrResult r = ComputeRangePr(regions, regions);
  EXPECT_DOUBLE_EQ(r.precision, 1.0);
  EXPECT_DOUBLE_EQ(r.recall, 1.0);
  EXPECT_DOUBLE_EQ(r.f1, 1.0);
}

TEST(RangePrTest, NoPredictionsIsZeroRecall) {
  const RangePrResult r = ComputeRangePr({{10, 20}}, {});
  EXPECT_DOUBLE_EQ(r.recall, 0.0);
  EXPECT_DOUBLE_EQ(r.precision, 0.0);
  EXPECT_DOUBLE_EQ(r.f1, 0.0);
}

TEST(RangePrTest, NoRealRegionsIsVacuous) {
  EXPECT_DOUBLE_EQ(ComputeRangePr({}, {}).recall, 1.0);
  EXPECT_DOUBLE_EQ(ComputeRangePr({}, {}).precision, 1.0);
  EXPECT_DOUBLE_EQ(ComputeRangePr({}, {{1, 2}}).precision, 0.0);
}

TEST(RangePrTest, HalfOverlapFlatBias) {
  // Prediction covers the second half of the real region.
  const RangePrResult r = ComputeRangePr({{0, 10}}, {{5, 10}});
  EXPECT_DOUBLE_EQ(r.recall, 0.5);
  EXPECT_DOUBLE_EQ(r.precision, 1.0);  // prediction fully inside
}

TEST(RangePrTest, CardinalityPenalizesFragmentation) {
  const std::vector<AnomalyRegion> real = {{0, 10}};
  // One contiguous prediction covering 6 points...
  const double whole = ComputeRangePr(real, {{0, 6}}).recall;
  // ...versus the same 6 points in three fragments.
  const double fragmented =
      ComputeRangePr(real, {{0, 2}, {3, 5}, {6, 8}}).recall;
  EXPECT_GT(whole, fragmented);
}

TEST(RangePrTest, PrecisionAveragesOverPredictions) {
  // One perfect prediction + one complete miss -> precision 0.5.
  const RangePrResult r =
      ComputeRangePr({{0, 10}}, {{0, 10}, {50, 60}});
  EXPECT_DOUBLE_EQ(r.precision, 0.5);
}

TEST(RangePrTest, InputsAreNormalizedFirst) {
  // Overlapping predicted fragments merge before scoring.
  const RangePrResult merged =
      ComputeRangePr({{0, 10}}, {{0, 6}, {4, 10}});
  EXPECT_DOUBLE_EQ(merged.recall, 1.0);
  EXPECT_DOUBLE_EQ(merged.precision, 1.0);
}

}  // namespace
}  // namespace tsad
