// The "point-adjust" protocol (popularized by Xu et al. WWW'18 and used
// by OmniAnomaly [3] and most deep TSAD papers since): if any point of
// a true anomaly region is predicted positive, every point of that
// region is counted as detected. The paper's flaw analysis explains why
// this combines badly with long labeled regions (§2.3): one lucky point
// in a region covering half the test set yields a huge TP count.

#ifndef TSAD_SCORING_POINT_ADJUST_H_
#define TSAD_SCORING_POINT_ADJUST_H_

#include <cstdint>
#include <vector>

#include "common/series.h"
#include "scoring/confusion.h"

namespace tsad {

/// Best point-adjusted F1 over all thresholds — the headline number in
/// most deep-TSAD papers. Computed as a single descending-score sweep
/// with incremental region-hit counting: O(n log n) over the score
/// track, bit-identical in (f1, threshold, confusion) to recomputing
/// the adjusted confusion at every threshold.
Result<BestF1> BestPointAdjustedF1(const std::vector<uint8_t>& truth,
                                   const std::vector<double>& scores);

}  // namespace tsad

#endif  // TSAD_SCORING_POINT_ADJUST_H_
