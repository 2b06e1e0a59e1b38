// The UCR Anomaly Archive's scoring protocol (paper §2.3, §3): each
// test series contains exactly one anomaly; the algorithm returns the
// single most anomalous location; the answer is binary — correct iff
// the location falls inside the labeled region extended by a small
// "slop" allowance (§4.4: algorithms may place their peak at the
// beginning, middle or end of the anomalous subsequence, and the
// scoring must not punish formatting). Aggregate quality over an
// archive is plain accuracy.

#ifndef TSAD_SCORING_UCR_SCORE_H_
#define TSAD_SCORING_UCR_SCORE_H_

#include <cstddef>
#include <vector>

#include "common/series.h"
#include "common/status.h"

namespace tsad {

/// True iff `predicted` is a correct answer for a series whose single
/// anomaly is `anomaly`: it lies inside the region widened on each side
/// by the slop, max(100, region length) points, as the official
/// archive scores it.
bool UcrCorrect(const AnomalyRegion& anomaly, std::size_t predicted);

/// Per-series result of a UCR evaluation.
struct UcrSeriesOutcome {
  std::string series_name;
  std::size_t predicted = 0;
  AnomalyRegion anomaly;
  bool correct = false;
};

/// Archive-level accuracy.
struct UcrAccuracy {
  std::size_t correct = 0;
  std::size_t total = 0;
  std::vector<UcrSeriesOutcome> outcomes;

  double accuracy() const {
    return total == 0 ? 0.0
                      : static_cast<double>(correct) / static_cast<double>(total);
  }
};

/// Scores one predicted location against a labeled series with
/// UcrCorrect. Returns InvalidArgument unless the series has exactly
/// one anomaly region.
Result<UcrSeriesOutcome> ScoreUcrSeries(const LabeledSeries& series,
                                        std::size_t predicted);

}  // namespace tsad

#endif  // TSAD_SCORING_UCR_SCORE_H_
