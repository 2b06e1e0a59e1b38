#include "scoring/range_pr.h"

#include <algorithm>

namespace tsad {

namespace {

// Score of one range against the opposing set: the fraction of `range`
// that each overlapping range covers, summed, times 1/k when k > 1 of
// them overlap it.
double RangeScore(const AnomalyRegion& range,
                  const std::vector<AnomalyRegion>& others) {
  const double length = static_cast<double>(range.length());
  double overlap_total = 0.0;
  std::size_t overlap_count = 0;
  for (const AnomalyRegion& other : others) {
    const std::size_t lo = std::max(range.begin, other.begin);
    const std::size_t hi = std::min(range.end, other.end);
    if (lo >= hi) continue;
    ++overlap_count;
    overlap_total += static_cast<double>(hi - lo) / length;
  }
  const double cardinality =
      overlap_count > 1 ? 1.0 / static_cast<double>(overlap_count) : 1.0;
  return cardinality * overlap_total;
}

}  // namespace

RangePrResult ComputeRangePr(const std::vector<AnomalyRegion>& real_in,
                             const std::vector<AnomalyRegion>& predicted_in) {
  const std::vector<AnomalyRegion> real = NormalizeRegions(real_in);
  const std::vector<AnomalyRegion> predicted = NormalizeRegions(predicted_in);

  RangePrResult result;
  if (real.empty()) {
    // Vacuous recall; precision is 1 only if nothing was predicted.
    result.recall = 1.0;
    result.precision = predicted.empty() ? 1.0 : 0.0;
  } else {
    double recall_sum = 0.0;
    for (const AnomalyRegion& r : real) {
      recall_sum += RangeScore(r, predicted);
    }
    result.recall = recall_sum / static_cast<double>(real.size());

    if (predicted.empty()) {
      result.precision = 0.0;
    } else {
      double precision_sum = 0.0;
      for (const AnomalyRegion& p : predicted) {
        precision_sum += RangeScore(p, real);
      }
      result.precision =
          precision_sum / static_cast<double>(predicted.size());
    }
  }
  const double pr = result.precision + result.recall;
  result.f1 = pr == 0.0 ? 0.0 : 2.0 * result.precision * result.recall / pr;
  return result;
}

}  // namespace tsad
