#include "confusion_oracle.h"

#include <algorithm>
#include <functional>
#include <string>

#include "common/series.h"

namespace tsad {
namespace testing {

Result<Confusion> ComputeConfusion(const std::vector<uint8_t>& truth,
                                   const std::vector<uint8_t>& predictions) {
  if (truth.size() != predictions.size()) {
    return Status::InvalidArgument(
        "truth/prediction length mismatch: " + std::to_string(truth.size()) +
        " vs " + std::to_string(predictions.size()));
  }
  Confusion c;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const bool t = truth[i] != 0, p = predictions[i] != 0;
    if (t && p) {
      ++c.tp;
    } else if (!t && p) {
      ++c.fp;
    } else if (t && !p) {
      ++c.fn;
    } else {
      ++c.tn;
    }
  }
  return c;
}

std::vector<uint8_t> PointAdjustPredictions(
    const std::vector<uint8_t>& truth,
    const std::vector<uint8_t>& predictions) {
  std::vector<uint8_t> adjusted = predictions;
  const std::size_t n = std::min(truth.size(), predictions.size());
  const std::vector<AnomalyRegion> regions =
      RegionsFromBinary(std::vector<uint8_t>(truth.begin(),
                                             truth.begin() +
                                                 static_cast<std::ptrdiff_t>(n)));
  for (const AnomalyRegion& r : regions) {
    bool hit = false;
    for (std::size_t i = r.begin; i < r.end && i < n; ++i) {
      if (predictions[i]) {
        hit = true;
        break;
      }
    }
    if (hit) {
      for (std::size_t i = r.begin; i < r.end && i < n; ++i) adjusted[i] = 1;
    }
  }
  return adjusted;
}

Result<Confusion> ComputePointAdjustedConfusion(
    const std::vector<uint8_t>& truth,
    const std::vector<uint8_t>& predictions) {
  if (truth.size() != predictions.size()) {
    return Status::InvalidArgument("truth/prediction length mismatch");
  }
  return ComputeConfusion(truth, PointAdjustPredictions(truth, predictions));
}

Result<BestF1> BestPointAdjustedF1Direct(const std::vector<uint8_t>& truth,
                                         const std::vector<double>& scores) {
  if (truth.size() != scores.size()) {
    return Status::InvalidArgument("truth/score length mismatch");
  }
  // Distinct score values as candidate thresholds (predict score >= t).
  std::vector<double> thresholds = scores;
  std::sort(thresholds.begin(), thresholds.end(), std::greater<>());
  thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                   thresholds.end());

  BestF1 best;
  for (double t : thresholds) {
    std::vector<uint8_t> pred(scores.size());
    for (std::size_t i = 0; i < scores.size(); ++i) pred[i] = scores[i] >= t;
    TSAD_ASSIGN_OR_RETURN(const Confusion c,
                          ComputePointAdjustedConfusion(truth, pred));
    const double f1 = c.f1();
    if (f1 > best.f1) {
      best.f1 = f1;
      best.threshold = t;
      best.confusion = c;
    }
  }
  return best;
}

}  // namespace testing
}  // namespace tsad
