// The run-to-failure bias analyzer (§2.5, Fig 10): are anomaly
// locations skewed toward the end of their series? If so, "a naive
// algorithm that simply labels the last point as an anomaly has an
// excellent chance of being correct."

#ifndef TSAD_CORE_RUN_TO_FAILURE_H_
#define TSAD_CORE_RUN_TO_FAILURE_H_

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "common/series.h"

namespace tsad {

struct RunToFailureReport {
  std::string dataset_name;
  std::size_t num_series = 0;
  /// Relative position (0..1) of the LAST anomaly in each series (the
  /// paper's Fig 10 plots the rightmost anomaly).
  std::vector<double> last_anomaly_positions;
  /// Decile histogram of those positions.
  std::array<std::size_t, 10> decile_counts = {};
  double mean_position = 0.0;
  double fraction_in_last_quintile = 0.0;
  /// One-sample Kolmogorov-Smirnov statistic against Uniform(0,1):
  /// large values mean the placement is far from random.
  double ks_statistic = 0.0;
  /// Fraction of series where the naive last-point detector scores a
  /// hit: the final point lies within 100 points of the last anomaly.
  double last_point_hit_rate = 0.0;
};

RunToFailureReport AnalyzeRunToFailure(const BenchmarkDataset& dataset);

}  // namespace tsad

#endif  // TSAD_CORE_RUN_TO_FAILURE_H_
