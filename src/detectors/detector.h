// The common anomaly detector interface.
//
// Every detector maps a series to one anomaly score per point (higher =
// more anomalous), optionally using a training prefix. This mirrors how
// the paper compares algorithms: Fig 13 plots the per-point score tracks
// of Telemanom and Discord, and the UCR archive asks only for the argmax
// location.

#ifndef TSAD_DETECTORS_DETECTOR_H_
#define TSAD_DETECTORS_DETECTOR_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/series.h"
#include "common/status.h"

namespace tsad {

/// Abstract interface: produces an anomaly score for every point.
class AnomalyDetector {
 public:
  virtual ~AnomalyDetector() = default;

  /// Human-readable detector name (stable; used in reports).
  virtual std::string_view name() const = 0;

  /// Scores `series`; the result has exactly series.size() entries,
  /// higher = more anomalous. `train_length` is the anomaly-free prefix
  /// the detector may fit on (0 = unsupervised; detectors that require
  /// training data return FailedPrecondition in that case). A pure
  /// function of its arguments: no detector keeps state between calls,
  /// so the parallel harnesses (EvaluateOnArchive, the robustness
  /// matrix, the leaderboard) score one instance from many threads.
  virtual Result<std::vector<double>> Score(const Series& series,
                                            std::size_t train_length) const = 0;

  /// Convenience: scores a labeled series using its training split.
  Result<std::vector<double>> Score(const LabeledSeries& series) const {
    return Score(series.values(), series.train_length());
  }
};

/// The batch form of a per-point detector: steps `core` once per point
/// of `series`, in order, and returns the scores. The detector's online
/// adapter steps the same core one point at a time, so batch and online
/// scores are the same bytes.
template <typename Core>
std::vector<double> StepScores(Core core, const Series& series) {
  std::vector<double> scores(series.size());
  for (std::size_t i = 0; i < series.size(); ++i) {
    scores[i] = core.Step(series[i]);
  }
  return scores;
}

/// Index of the highest score at or after `test_start` — the "predicted
/// anomaly location" under the UCR archive's single-anomaly protocol.
/// Returns kNoPrediction for empty input or test_start out of range.
inline constexpr std::size_t kNoPrediction =
    static_cast<std::size_t>(-1);
std::size_t PredictLocation(const std::vector<double>& scores,
                            std::size_t test_start);

/// Thresholds scores into predicted anomaly regions (score > threshold).
std::vector<AnomalyRegion> RegionsFromScores(const std::vector<double>& scores,
                                             double threshold);

/// Binary predictions (score > threshold).
std::vector<uint8_t> PredictionsFromScores(const std::vector<double>& scores,
                                           double threshold);

/// Discrimination ratio used informally in Fig 13: (max score - mean
/// score) / (std of scores). Larger = the peak stands out more. Returns
/// 0 for constant score tracks.
double Discrimination(const std::vector<double>& scores);

}  // namespace tsad

#endif  // TSAD_DETECTORS_DETECTOR_H_
