// The unrealistic-anomaly-density analyzer (§2.3). Quantifies the three
// flavors the paper identifies:
//   1. huge contiguous labeled regions (NASA D-2/M-1/M-2: > 1/2 of the
//      test span; "another dozen or so" > 1/3),
//   2. many separate regions in a short span (SMD machine-2-5: 21),
//   3. labeled regions nearly adjacent (Yahoo: two anomalies
//      sandwiching a single normal point).

#ifndef TSAD_CORE_DENSITY_H_
#define TSAD_CORE_DENSITY_H_

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "common/series.h"

namespace tsad {

struct DensityStats {
  std::string series_name;
  std::size_t series_length = 0;
  std::size_t test_length = 0;  // length after the training prefix
  std::size_t num_regions = 0;
  std::size_t anomalous_points = 0;
  double anomaly_fraction = 0.0;        // of the test span
  double max_contiguous_fraction = 0.0; // largest region / test span
  /// Smallest normal gap between consecutive regions; SIZE_MAX when
  /// there are fewer than two regions.
  std::size_t min_gap = std::numeric_limits<std::size_t>::max();
};

DensityStats AnalyzeDensity(const LabeledSeries& series);

/// Which density flaws a series exhibits.
struct DensityFlags {
  bool over_half_contiguous = false;
  bool over_third_contiguous = false;
  bool many_regions = false;  // 10 or more labeled regions
  bool adjacent_regions = false;
  /// The paper's ideal: exactly one anomaly (§2.3, "the ideal number of
  /// anomalies in a single testing time series is exactly one").
  bool ideal_single_anomaly = false;
};

DensityFlags ClassifyDensity(const DensityStats& stats);

/// Archive-level census used by the density bench.
struct DensityCensus {
  std::string dataset_name;
  std::vector<DensityStats> stats;  // per series
  std::size_t over_half = 0;
  std::size_t over_third = 0;
  std::size_t many_regions = 0;
  std::size_t adjacent = 0;
  std::size_t single_anomaly = 0;
};

DensityCensus CensusDensity(const BenchmarkDataset& dataset);

}  // namespace tsad

#endif  // TSAD_CORE_DENSITY_H_
