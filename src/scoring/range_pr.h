// Range-based precision and recall (Tatbul, Lee, Zdonik, Alam &
// Gottschlich, NeurIPS 2018) — the paper's reference [19] for "others
// have considered problems with current scoring functions".
//
// For each real anomaly range R_i:
//   Recall(R_i) = CardinalityFactor * OverlapTotal(R_i)
// where OverlapTotal sums, over the predicted ranges that overlap R_i,
// the fraction of R_i's positions each one covers (Tatbul et al.'s
// flat positional bias, with no existence reward: alpha = 0), and the
// cardinality factor 1/k penalizes a range split across k > 1
// predicted ranges. Precision is the same score over predicted ranges
// against the real ones.

#ifndef TSAD_SCORING_RANGE_PR_H_
#define TSAD_SCORING_RANGE_PR_H_

#include <cstddef>
#include <vector>

#include "common/series.h"

namespace tsad {

struct RangePrResult {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
};

/// Computes range-based precision/recall/F1 between real and predicted
/// anomaly region lists (both are normalized internally).
RangePrResult ComputeRangePr(const std::vector<AnomalyRegion>& real,
                             const std::vector<AnomalyRegion>& predicted);

}  // namespace tsad

#endif  // TSAD_SCORING_RANGE_PR_H_
