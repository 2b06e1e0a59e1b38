#include "common/series.h"

#include <gtest/gtest.h>

namespace tsad {
namespace {

TEST(NormalizeRegionsTest, SortsAndMerges) {
  const auto merged = NormalizeRegions({{10, 20}, {5, 8}, {18, 25}, {30, 31}});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0], (AnomalyRegion{5, 8}));
  EXPECT_EQ(merged[1], (AnomalyRegion{10, 25}));
  EXPECT_EQ(merged[2], (AnomalyRegion{30, 31}));
}

TEST(NormalizeRegionsTest, DropsEmptyRegions) {
  const auto merged = NormalizeRegions({{5, 5}, {7, 6}, {1, 2}});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0], (AnomalyRegion{1, 2}));
}

TEST(NormalizeRegionsTest, MergesTouchingRegions) {
  const auto merged = NormalizeRegions({{0, 5}, {5, 10}});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0], (AnomalyRegion{0, 10}));
}

TEST(RegionsBinaryRoundTripTest, RoundTrips) {
  const std::vector<uint8_t> labels = {0, 1, 1, 0, 0, 1, 0, 1, 1, 1};
  const auto regions = RegionsFromBinary(labels);
  ASSERT_EQ(regions.size(), 3u);
  EXPECT_EQ(regions[0], (AnomalyRegion{1, 3}));
  EXPECT_EQ(regions[1], (AnomalyRegion{5, 6}));
  EXPECT_EQ(regions[2], (AnomalyRegion{7, 10}));
  EXPECT_EQ(BinaryFromRegions(regions, labels.size()), labels);
}

TEST(BinaryFromRegionsTest, ClipsOutOfRangeRegions) {
  const auto labels = BinaryFromRegions({{8, 20}}, 10);
  ASSERT_EQ(labels.size(), 10u);
  EXPECT_EQ(labels[7], 0);
  EXPECT_EQ(labels[8], 1);
  EXPECT_EQ(labels[9], 1);
}

TEST(LabeledSeriesTest, IsAnomalousUsesBinarySearch) {
  LabeledSeries s("t", Series(100, 0.0), {{10, 20}, {50, 51}});
  EXPECT_FALSE(s.IsAnomalous(9));
  EXPECT_TRUE(s.IsAnomalous(10));
  EXPECT_TRUE(s.IsAnomalous(19));
  EXPECT_FALSE(s.IsAnomalous(20));
  EXPECT_TRUE(s.IsAnomalous(50));
  EXPECT_FALSE(s.IsAnomalous(51));
  EXPECT_FALSE(s.IsAnomalous(99));
}

TEST(LabeledSeriesTest, DensityAndCounts) {
  LabeledSeries s("t", Series(100, 0.0), {{0, 10}, {90, 100}});
  EXPECT_EQ(s.NumAnomalousPoints(), 20u);
}

TEST(LabeledSeriesTest, BinaryLabelsMatchesRegions) {
  LabeledSeries s("t", Series(6, 1.0), {{2, 4}});
  const std::vector<uint8_t> expected = {0, 0, 1, 1, 0, 0};
  EXPECT_EQ(s.BinaryLabels(), expected);
}

TEST(LabeledSeriesValidateTest, AcceptsWellFormed) {
  LabeledSeries s("t", Series(100, 0.0), {{50, 60}}, 10);
  EXPECT_TRUE(s.Validate().ok());
}

TEST(LabeledSeriesValidateTest, RejectsOutOfBoundsRegion) {
  LabeledSeries s("t", Series(10, 0.0), {{5, 20}});
  EXPECT_EQ(s.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(LabeledSeriesValidateTest, RejectsAnomalyInTrainPrefix) {
  LabeledSeries s("t", Series(100, 0.0), {{5, 8}}, 10);
  EXPECT_FALSE(s.Validate().ok());
}

TEST(LabeledSeriesValidateTest, RejectsNonFiniteValues) {
  Series x(10, 0.0);
  x[3] = std::numeric_limits<double>::quiet_NaN();
  LabeledSeries s("t", std::move(x), {});
  EXPECT_FALSE(s.Validate().ok());
}

TEST(LabeledSeriesValidateTest, RejectsTrainLongerThanSeries) {
  LabeledSeries s("t", Series(10, 0.0), {}, 11);
  EXPECT_FALSE(s.Validate().ok());
}

TEST(MultivariateSeriesTest, DimensionExtractionSharesLabels) {
  MultivariateSeries m("m", {{1, 2, 3}, {4, 5, 6}}, {{1, 2}}, 0);
  Result<LabeledSeries> dim = m.Dimension(1);
  ASSERT_TRUE(dim.ok());
  EXPECT_EQ(dim->values(), (Series{4, 5, 6}));
  ASSERT_EQ(dim->anomalies().size(), 1u);
  EXPECT_EQ(dim->anomalies().front(), (AnomalyRegion{1, 2}));
}

TEST(MultivariateSeriesTest, DimensionOutOfRange) {
  MultivariateSeries m("m", {{1, 2}}, {}, 0);
  EXPECT_FALSE(m.Dimension(3).ok());
}

TEST(MultivariateSeriesTest, ValidateCatchesRaggedDimensions) {
  MultivariateSeries m("m", {{1, 2, 3}, {4, 5}}, {}, 0);
  EXPECT_FALSE(m.Validate().ok());
}

TEST(BenchmarkDatasetTest, ValidatePropagatesMemberErrors) {
  BenchmarkDataset d;
  d.name = "d";
  d.series.emplace_back("ok", Series(10, 0.0),
                        std::vector<AnomalyRegion>{{2, 3}});
  EXPECT_TRUE(d.Validate().ok());
  d.series.emplace_back("bad", Series(10, 0.0),
                        std::vector<AnomalyRegion>{{5, 99}});
  EXPECT_FALSE(d.Validate().ok());
}

}  // namespace
}  // namespace tsad
