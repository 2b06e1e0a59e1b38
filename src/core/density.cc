#include "core/density.h"

#include <algorithm>

namespace tsad {

DensityStats AnalyzeDensity(const LabeledSeries& series) {
  DensityStats stats;
  stats.series_name = series.name();
  stats.series_length = series.length();
  stats.test_length = series.length() - std::min(series.length(),
                                                 series.train_length());
  stats.num_regions = series.anomalies().size();
  stats.anomalous_points = series.NumAnomalousPoints();
  if (stats.test_length > 0) {
    stats.anomaly_fraction = static_cast<double>(stats.anomalous_points) /
                             static_cast<double>(stats.test_length);
    std::size_t longest = 0;
    for (const AnomalyRegion& r : series.anomalies()) {
      longest = std::max(longest, r.length());
    }
    stats.max_contiguous_fraction =
        static_cast<double>(longest) / static_cast<double>(stats.test_length);
  }
  const auto& regions = series.anomalies();
  for (std::size_t i = 1; i < regions.size(); ++i) {
    const std::size_t gap = regions[i].begin - regions[i - 1].end;
    stats.min_gap = std::min(stats.min_gap, gap);
  }
  return stats;
}

DensityFlags ClassifyDensity(const DensityStats& stats,
                             const DensityThresholds& thresholds) {
  // A region longer than these fractions of the test span is §2.3's
  // "huge contiguous" flaw; regions at most kAdjacentGap normal points
  // apart are "adjacent".
  constexpr double kContiguousHalf = 0.5;
  constexpr double kContiguousThird = 1.0 / 3.0;
  constexpr std::size_t kAdjacentGap = 2;
  DensityFlags flags;
  flags.over_half_contiguous =
      stats.max_contiguous_fraction > kContiguousHalf;
  flags.over_third_contiguous =
      stats.max_contiguous_fraction > kContiguousThird;
  flags.many_regions = stats.num_regions >= thresholds.many_regions;
  flags.adjacent_regions =
      stats.num_regions >= 2 && stats.min_gap <= kAdjacentGap;
  flags.ideal_single_anomaly = stats.num_regions == 1;
  return flags;
}

DensityCensus CensusDensity(const BenchmarkDataset& dataset,
                            const DensityThresholds& thresholds) {
  DensityCensus census;
  census.dataset_name = dataset.name;
  for (const LabeledSeries& s : dataset.series) {
    DensityStats stats = AnalyzeDensity(s);
    const DensityFlags flags = ClassifyDensity(stats, thresholds);
    if (flags.over_half_contiguous) ++census.over_half;
    if (flags.over_third_contiguous) ++census.over_third;
    if (flags.many_regions) ++census.many_regions;
    if (flags.adjacent_regions) ++census.adjacent;
    if (flags.ideal_single_anomaly) ++census.single_anomaly;
    census.stats.push_back(std::move(stats));
  }
  return census;
}

}  // namespace tsad
