// Deliberately naive baselines from the paper's arguments:
//  * LastPointDetector — §2.5: under run-to-failure bias, "a naive
//    algorithm that simply labels the last point as an anomaly has an
//    excellent chance of being correct."
//  * MaxAbsDiffDetector — flags the single largest |diff|; the minimal
//    instance of the one-liner family.
//  * ConstantRunDetector — the NASA "diff(diff(TS)) == 0" trick for
//    dynamic-series-becomes-frozen anomalies (§2.2).

#ifndef TSAD_DETECTORS_NAIVE_H_
#define TSAD_DETECTORS_NAIVE_H_

#include <cstddef>

#include "detectors/detector.h"

namespace tsad {

/// Score 1 at the final index, 0 elsewhere.
class LastPointDetector : public AnomalyDetector {
 public:
  std::string_view name() const override { return "LastPoint"; }
  using AnomalyDetector::Score;
  Result<std::vector<double>> Score(const Series& series,
                                    std::size_t train_length) const override;
};

/// Score |x[i] - x[i-1]| at each point (0 at index 0).
class MaxAbsDiffDetector : public AnomalyDetector {
 public:
  std::string_view name() const override { return "MaxAbsDiff"; }
  using AnomalyDetector::Score;
  Result<std::vector<double>> Score(const Series& series,
                                    std::size_t train_length) const override;
};

/// Scores each point by the length of the constant run it belongs to
/// (0 when not in a run of at least `min_run` exactly equal points).
/// Catches frozen telemetry.
class ConstantRunDetector : public AnomalyDetector {
 public:
  explicit ConstantRunDetector(std::size_t min_run = 3);

  std::string_view name() const override { return name_; }
  using AnomalyDetector::Score;
  Result<std::vector<double>> Score(const Series& series,
                                    std::size_t train_length) const override;

 private:
  std::size_t min_run_;
  std::string name_;
};

}  // namespace tsad

#endif  // TSAD_DETECTORS_NAIVE_H_
