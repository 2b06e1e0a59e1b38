#include "scoring/ucr_score.h"

#include <algorithm>

namespace tsad {

bool UcrCorrect(const AnomalyRegion& anomaly, std::size_t predicted) {
  constexpr std::size_t kSlopFloor = 100;
  const std::size_t slop = std::max(kSlopFloor, anomaly.length());
  const std::size_t lo = anomaly.begin > slop ? anomaly.begin - slop : 0;
  const std::size_t hi = anomaly.end + slop;
  return predicted >= lo && predicted < hi;
}

Result<UcrSeriesOutcome> ScoreUcrSeries(const LabeledSeries& series,
                                        std::size_t predicted) {
  if (series.anomalies().size() != 1) {
    return Status::InvalidArgument(
        "UCR scoring requires exactly one anomaly region; series '" +
        series.name() + "' has " + std::to_string(series.anomalies().size()));
  }
  UcrSeriesOutcome outcome;
  outcome.series_name = series.name();
  outcome.predicted = predicted;
  outcome.anomaly = series.anomalies().front();
  outcome.correct = UcrCorrect(outcome.anomaly, predicted);
  return outcome;
}

}  // namespace tsad
