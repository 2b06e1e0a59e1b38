#include "scoring/range_pr.h"

#include <algorithm>
#include <cmath>

namespace tsad {

namespace {

// Precision weighs every position of a predicted range equally.
constexpr PositionalBias kPrecisionBias = PositionalBias::kFlat;

// Positional weight of offset i (0-based) within a range of `length`
// positions, per Tatbul et al.'s delta() examples.
double PositionWeight(PositionalBias bias, std::size_t i, std::size_t length) {
  switch (bias) {
    case PositionalBias::kFlat:
      return 1.0;
    case PositionalBias::kFront:
      return static_cast<double>(length - i);
    case PositionalBias::kBack:
      return static_cast<double>(i + 1);
    case PositionalBias::kMiddle:
      return static_cast<double>(std::min(i + 1, length - i));
  }
  return 1.0;
}

// omega(): weighted fraction of `base` covered by `overlap` under the
// positional bias. `overlap` must be a sub-range of `base` (callers
// intersect first).
double OverlapReward(const AnomalyRegion& base, const AnomalyRegion& overlap,
                     PositionalBias bias) {
  const std::size_t length = base.length();
  if (length == 0) return 0.0;
  double covered = 0.0, total = 0.0;
  for (std::size_t i = 0; i < length; ++i) {
    const double w = PositionWeight(bias, i, length);
    total += w;
    const std::size_t pos = base.begin + i;
    if (pos >= overlap.begin && pos < overlap.end) covered += w;
  }
  return total == 0.0 ? 0.0 : covered / total;
}

// Score of one range against the opposing set.
double RangeScore(const AnomalyRegion& range,
                  const std::vector<AnomalyRegion>& others, double alpha,
                  PositionalBias bias, double cardinality_power) {
  double overlap_total = 0.0;
  std::size_t overlap_count = 0;
  for (const AnomalyRegion& other : others) {
    const std::size_t lo = std::max(range.begin, other.begin);
    const std::size_t hi = std::min(range.end, other.end);
    if (lo >= hi) continue;
    ++overlap_count;
    overlap_total += OverlapReward(range, {lo, hi}, bias);
  }
  const double existence = overlap_count > 0 ? 1.0 : 0.0;
  double cardinality = 1.0;
  if (overlap_count > 1) {
    cardinality =
        1.0 / std::pow(static_cast<double>(overlap_count), cardinality_power);
  }
  return alpha * existence + (1.0 - alpha) * cardinality * overlap_total;
}

}  // namespace

RangePrResult ComputeRangePr(const std::vector<AnomalyRegion>& real_in,
                             const std::vector<AnomalyRegion>& predicted_in,
                             const RangePrConfig& config) {
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
      recall_sum += RangeScore(r, predicted, config.alpha, config.recall_bias,
                               config.cardinality_power);
    }
    result.recall = recall_sum / static_cast<double>(real.size());

    if (predicted.empty()) {
      result.precision = 0.0;
    } else {
      double precision_sum = 0.0;
      for (const AnomalyRegion& p : predicted) {
        precision_sum += RangeScore(p, real, /*alpha=*/0.0,
                                    kPrecisionBias, config.cardinality_power);
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
