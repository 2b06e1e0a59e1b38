// NAB scoring (Ahmad et al., Neurocomputing 2017 — the Numenta
// benchmark the paper critiques). Each true anomaly gets an "anomaly
// window"; detections inside the window earn a sigmoidal reward that
// favors early detection; detections outside windows are penalized as
// false positives; missed windows are penalized as false negatives.
// The final score is normalized between a "null" detector (score 0)
// and a perfect detector (score 100).
//
// The paper notes (§2.3) that this scoring function is "exceedingly
// difficult to interpret, and almost no one uses this" — implementing
// it lets the benches demonstrate exactly that interpretability gap
// next to plain accuracy.

#ifndef TSAD_SCORING_NAB_H_
#define TSAD_SCORING_NAB_H_

#include <cstddef>
#include <vector>

#include "common/series.h"
#include "common/status.h"

namespace tsad {

/// NAB application profile weights.
struct NabProfile {
  double tp_weight = 1.0;
  double fp_weight = 0.11;  // cost per false positive
  double fn_weight = 1.0;   // cost per missed window
};

/// The "standard", "reward low FP" and "reward low FN" profiles from
/// the NAB codebase.
NabProfile NabStandardProfile();
NabProfile NabRewardLowFpProfile();
NabProfile NabRewardLowFnProfile();

/// Each true anomaly's window spans 10% of the series length divided by
/// the number of anomalies (NAB's convention).
struct NabConfig {
  NabProfile profile;
};

struct NabScore {
  double raw = 0.0;         // sum of sigmoidal rewards/penalties
  double normalized = 0.0;  // 100 * (raw - null) / (perfect - null)
  std::size_t detected_windows = 0;
  std::size_t total_windows = 0;
  std::size_t false_positives = 0;
};

/// Scores point detections (indices into the series) against labeled
/// anomalies. Returns InvalidArgument if series_length is 0 or a
/// detection index is out of range.
Result<NabScore> ComputeNabScore(const std::vector<AnomalyRegion>& anomalies,
                                 const std::vector<std::size_t>& detections,
                                 std::size_t series_length,
                                 const NabConfig& config = {});

}  // namespace tsad

#endif  // TSAD_SCORING_NAB_H_
