// The invariance study harness (§4.2, Fig 13): run several detectors on
// the same series under increasing perturbation (Gaussian noise,
// amplitude scaling, linear trend, baseline wander) and report where
// each detector's score peaks and how decisively (the Fig 13
// "discrimination" — peak minus mean, in units of score spread).
//
// This is the paper's recommended way to communicate when an algorithm
// should be trusted: "one approach might be better than the other if we
// expect to encounter noisy data."

#ifndef TSAD_CORE_INVARIANCE_H_
#define TSAD_CORE_INVARIANCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/series.h"
#include "common/status.h"
#include "detectors/detector.h"

namespace tsad {

/// Which perturbation family to sweep.
enum class Perturbation {
  kGaussianNoise,   // add N(0, level * signal_std)
  kAmplitudeScale,  // multiply by (1 + level)
  kLinearTrend,     // add a ramp with total rise level * signal_std
  kBaselineWander,  // add a slow sinusoid, amplitude level * signal_std
};

std::string_view PerturbationName(Perturbation p);

struct InvarianceRow {
  std::string detector_name;
  Perturbation perturbation = Perturbation::kGaussianNoise;
  double level = 0.0;
  std::size_t peak_location = 0;
  bool peak_correct = false;    // within slop of the true anomaly
  double discrimination = 0.0;  // (max - mean) / std of the score track
};

struct InvarianceConfig {
  std::vector<double> levels = {0.0, 0.25, 0.5, 1.0, 2.0};
  Perturbation perturbation = Perturbation::kGaussianNoise;
  std::size_t slop = 100;  // §4.4's positional "play"
};

/// Applies one perturbation to a copy of the series (labels unchanged).
LabeledSeries Perturb(const LabeledSeries& series, Perturbation perturbation,
                      double level, uint64_t seed);

/// Runs every detector at every perturbation level, with one fixed
/// perturbation seed so noise realizations are deterministic. Detectors
/// that error at some level contribute a row with peak_correct = false
/// and discrimination = 0.
std::vector<InvarianceRow> RunInvarianceStudy(
    const LabeledSeries& series,
    const std::vector<const AnomalyDetector*>& detectors,
    const InvarianceConfig& config = {});

}  // namespace tsad

#endif  // TSAD_CORE_INVARIANCE_H_
