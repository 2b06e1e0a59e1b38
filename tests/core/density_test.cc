#include "core/density.h"

#include <gtest/gtest.h>

namespace tsad {
namespace {

TEST(AnalyzeDensityTest, BasicCounts) {
  LabeledSeries s("t", Series(1000, 0.0), {{500, 600}, {700, 702}}, 200);
  const DensityStats stats = AnalyzeDensity(s);
  EXPECT_EQ(stats.series_length, 1000u);
  EXPECT_EQ(stats.test_length, 800u);
  EXPECT_EQ(stats.num_regions, 2u);
  EXPECT_EQ(stats.anomalous_points, 102u);
  EXPECT_NEAR(stats.anomaly_fraction, 102.0 / 800.0, 1e-12);
  EXPECT_NEAR(stats.max_contiguous_fraction, 100.0 / 800.0, 1e-12);
  EXPECT_EQ(stats.min_gap, 100u);
}

TEST(AnalyzeDensityTest, SingleRegionHasNoGap) {
  LabeledSeries s("t", Series(100, 0.0), {{50, 60}});
  const DensityStats stats = AnalyzeDensity(s);
  EXPECT_EQ(stats.min_gap, std::numeric_limits<std::size_t>::max());
}

TEST(ClassifyDensityTest, OverHalfContiguous) {
  LabeledSeries s("t", Series(1000, 0.0), {{400, 950}});
  const DensityFlags flags = ClassifyDensity(AnalyzeDensity(s));
  EXPECT_TRUE(flags.over_half_contiguous);
  EXPECT_TRUE(flags.over_third_contiguous);
  EXPECT_TRUE(flags.ideal_single_anomaly);  // still exactly one region
}

TEST(ClassifyDensityTest, ManyRegions) {
  std::vector<AnomalyRegion> regions;
  for (std::size_t i = 0; i < 21; ++i) {
    regions.push_back({100 + i * 30, 110 + i * 30});
  }
  LabeledSeries s("machine-2-5-like", Series(1000, 0.0), regions);
  const DensityFlags flags = ClassifyDensity(AnalyzeDensity(s));
  EXPECT_TRUE(flags.many_regions);
  EXPECT_FALSE(flags.ideal_single_anomaly);
}

TEST(ClassifyDensityTest, AdjacentRegionsSandwich) {
  // Fig 3: two anomalies sandwiching a single normal point.
  LabeledSeries s("t", Series(100, 0.0), {{50, 51}, {52, 53}});
  const DensityFlags flags = ClassifyDensity(AnalyzeDensity(s));
  EXPECT_TRUE(flags.adjacent_regions);
}

TEST(ClassifyDensityTest, CleanSingleAnomalyHasNoFlaw) {
  LabeledSeries s("t", Series(1000, 0.0), {{500, 520}});
  const DensityFlags flags = ClassifyDensity(AnalyzeDensity(s));
  EXPECT_FALSE(flags.over_half_contiguous || flags.over_third_contiguous ||
               flags.many_regions || flags.adjacent_regions);
  EXPECT_TRUE(flags.ideal_single_anomaly);
}

TEST(CensusDensityTest, CountsAcrossDataset) {
  BenchmarkDataset d;
  d.name = "mixed";
  d.series.emplace_back("huge", Series(100, 0.0),
                        std::vector<AnomalyRegion>{{10, 90}});
  d.series.emplace_back("clean", Series(100, 0.0),
                        std::vector<AnomalyRegion>{{50, 52}});
  d.series.emplace_back("sandwich", Series(100, 0.0),
                        std::vector<AnomalyRegion>{{50, 51}, {52, 53}});
  const DensityCensus census = CensusDensity(d);
  EXPECT_EQ(census.stats.size(), 3u);
  EXPECT_EQ(census.over_half, 1u);
  EXPECT_EQ(census.adjacent, 1u);
  EXPECT_EQ(census.single_anomaly, 2u);
}

TEST(CensusDensityTest, CustomThresholds) {
  // "Many regions" starts at 10: nine are not many, ten are.
  auto regions = [](std::size_t count) {
    std::vector<AnomalyRegion> out;
    for (std::size_t i = 0; i < count; ++i) {
      out.push_back({10 + 20 * i, 12 + 20 * i});
    }
    return out;
  };
  BenchmarkDataset nine;
  nine.series.emplace_back("nine-regions", Series(300, 0.0), regions(9));
  EXPECT_EQ(CensusDensity(nine).many_regions, 0u);
  BenchmarkDataset ten;
  ten.series.emplace_back("ten-regions", Series(300, 0.0), regions(10));
  EXPECT_EQ(CensusDensity(ten).many_regions, 1u);
}

}  // namespace
}  // namespace tsad
