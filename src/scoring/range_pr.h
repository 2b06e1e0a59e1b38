// Range-based precision and recall (Tatbul, Lee, Zdonik, Alam &
// Gottschlich, NeurIPS 2018) — the paper's reference [19] for "others
// have considered problems with current scoring functions".
//
// For each real anomaly range R_i:
//   Recall(R_i) = alpha * Existence(R_i)
//               + (1 - alpha) * CardinalityFactor * OverlapTotal(R_i)
// where Existence is 1 iff any predicted range overlaps R_i, the
// overlap reward integrates a positional-bias weight over the covered
// positions, and the cardinality factor penalizes fragmented
// detections. Precision is symmetric over predicted ranges with
// alpha = 0 (existence is meaningless for precision) and a flat
// positional bias.

#ifndef TSAD_SCORING_RANGE_PR_H_
#define TSAD_SCORING_RANGE_PR_H_

#include <cstddef>
#include <vector>

#include "common/series.h"

namespace tsad {

/// Positional bias: which part of a range matters most.
enum class PositionalBias {
  kFlat,   // all positions equal
  kFront,  // early detection rewarded (the pump-at-midnight story, §2.3)
  kBack,   // late positions rewarded
  kMiddle, // center rewarded
};

struct RangePrConfig {
  double alpha = 0.0;  // weight of the existence reward in recall
  PositionalBias recall_bias = PositionalBias::kFlat;
  /// Cardinality penalty: overlap reward is divided by the number of
  /// distinct predicted ranges overlapping the real range, raised to
  /// this power (0 = no penalty, 1 = linear penalty).
  double cardinality_power = 1.0;
};

struct RangePrResult {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
};

/// Computes range-based precision/recall/F1 between real and predicted
/// anomaly region lists (both are normalized internally).
RangePrResult ComputeRangePr(const std::vector<AnomalyRegion>& real,
                             const std::vector<AnomalyRegion>& predicted,
                             const RangePrConfig& config = {});

}  // namespace tsad

#endif  // TSAD_SCORING_RANGE_PR_H_
