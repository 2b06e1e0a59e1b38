#include "core/run_to_failure.h"

#include <algorithm>
#include <cmath>

#include "common/stats.h"

namespace tsad {

RunToFailureReport AnalyzeRunToFailure(const BenchmarkDataset& dataset) {
  // How far, in points, the last-point detector may land from the last
  // anomaly and still count as a hit.
  constexpr std::size_t kLastPointSlop = 100;
  RunToFailureReport report;
  report.dataset_name = dataset.name;

  std::size_t last_point_hits = 0, scored = 0;
  for (const LabeledSeries& s : dataset.series) {
    if (s.anomalies().empty() || s.length() < 2) continue;
    ++scored;
    const AnomalyRegion& last = s.anomalies().back();
    const double rel = static_cast<double>(last.begin) /
                       static_cast<double>(s.length() - 1);
    report.last_anomaly_positions.push_back(rel);
    const std::size_t decile =
        std::min<std::size_t>(9, static_cast<std::size_t>(rel * 10.0));
    ++report.decile_counts[decile];

    // Would flagging the very last point count as a detection?
    const std::size_t final_index = s.length() - 1;
    const std::size_t hi = last.end + kLastPointSlop;
    const std::size_t lo =
        last.begin > kLastPointSlop ? last.begin - kLastPointSlop : 0;
    if (final_index >= lo && final_index < hi) ++last_point_hits;
  }
  report.num_series = scored;
  if (scored == 0) return report;

  report.mean_position = Mean(report.last_anomaly_positions);
  std::size_t last_quintile = 0;
  for (double p : report.last_anomaly_positions) {
    if (p >= 0.8) ++last_quintile;
  }
  report.fraction_in_last_quintile =
      static_cast<double>(last_quintile) / static_cast<double>(scored);
  report.last_point_hit_rate =
      static_cast<double>(last_point_hits) / static_cast<double>(scored);

  // One-sample KS statistic vs Uniform(0,1).
  std::vector<double> sorted = report.last_anomaly_positions;
  std::sort(sorted.begin(), sorted.end());
  double ks = 0.0;
  const double n = static_cast<double>(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const double cdf = sorted[i];  // Uniform(0,1) CDF at the sample
    const double hi = static_cast<double>(i + 1) / n - cdf;
    const double lo = cdf - static_cast<double>(i) / n;
    ks = std::max({ks, hi, lo});
  }
  report.ks_statistic = ks;
  return report;
}

}  // namespace tsad
