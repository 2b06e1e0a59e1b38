// Point-wise confusion-matrix scoring: the precision/recall/F1 numbers
// most TSAD papers report, computed with no adjustment protocol.

#ifndef TSAD_SCORING_CONFUSION_H_
#define TSAD_SCORING_CONFUSION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/series.h"
#include "common/status.h"

namespace tsad {

/// Confusion counts plus derived metrics. All metrics return 0 when
/// undefined (e.g., precision with no positive predictions).
struct Confusion {
  std::size_t tp = 0;
  std::size_t fp = 0;
  std::size_t fn = 0;
  std::size_t tn = 0;

  double precision() const {
    const std::size_t denom = tp + fp;
    return denom == 0 ? 0.0 : static_cast<double>(tp) / static_cast<double>(denom);
  }
  double recall() const {
    const std::size_t denom = tp + fn;
    return denom == 0 ? 0.0 : static_cast<double>(tp) / static_cast<double>(denom);
  }
  double f1() const {
    const double p = precision(), r = recall();
    return (p + r) == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
  }
  double accuracy() const {
    const std::size_t total = tp + fp + fn + tn;
    return total == 0 ? 0.0
                      : static_cast<double>(tp + tn) / static_cast<double>(total);
  }
};

/// Best achievable point-wise F1 over all score thresholds (the
/// "omniscient threshold" protocol common in the TSAD literature —
/// itself a flattering choice, which is part of the paper's point).
struct BestF1 {
  double f1 = 0.0;
  double threshold = 0.0;
  Confusion confusion;
};
Result<BestF1> BestF1OverThresholds(const std::vector<uint8_t>& truth,
                                    const std::vector<double>& scores);

}  // namespace tsad

#endif  // TSAD_SCORING_CONFUSION_H_
