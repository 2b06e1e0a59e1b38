#include "core/invariance.h"

#include <cmath>

#include "common/rng.h"
#include "common/stats.h"

namespace tsad {

std::string_view PerturbationName(Perturbation p) {
  switch (p) {
    case Perturbation::kGaussianNoise:
      return "gaussian-noise";
    case Perturbation::kAmplitudeScale:
      return "amplitude-scale";
    case Perturbation::kLinearTrend:
      return "linear-trend";
    case Perturbation::kBaselineWander:
      return "baseline-wander";
  }
  return "?";
}

LabeledSeries Perturb(const LabeledSeries& series, Perturbation perturbation,
                      double level, uint64_t seed) {
  LabeledSeries out = series;
  if (level == 0.0) return out;
  Series& x = out.mutable_values();
  const double scale = StdDev(x);
  Rng rng(seed);
  const std::size_t n = x.size();
  switch (perturbation) {
    case Perturbation::kGaussianNoise:
      for (double& v : x) v += rng.Gaussian(0.0, level * scale);
      break;
    case Perturbation::kAmplitudeScale:
      for (double& v : x) v *= (1.0 + level);
      break;
    case Perturbation::kLinearTrend:
      for (std::size_t i = 0; i < n; ++i) {
        x[i] += level * scale * static_cast<double>(i) /
                static_cast<double>(n > 1 ? n - 1 : 1);
      }
      break;
    case Perturbation::kBaselineWander:
      for (std::size_t i = 0; i < n; ++i) {
        x[i] += level * scale *
                std::sin(2.0 * 3.14159265358979 * static_cast<double>(i) /
                         (static_cast<double>(n) / 3.0));
      }
      break;
  }
  return out;
}

std::vector<InvarianceRow> RunInvarianceStudy(
    const LabeledSeries& series,
    const std::vector<const AnomalyDetector*>& detectors,
    const InvarianceConfig& config) {
  constexpr uint64_t kPerturbationSeed = 1234;  // one noise realization
  std::vector<InvarianceRow> rows;
  for (double level : config.levels) {
    const LabeledSeries perturbed =
        Perturb(series, config.perturbation, level, kPerturbationSeed);
    for (const AnomalyDetector* detector : detectors) {
      InvarianceRow row;
      row.detector_name = std::string(detector->name());
      row.perturbation = config.perturbation;
      row.level = level;
      Result<std::vector<double>> scores = detector->Score(perturbed);
      if (scores.ok() && !scores->empty()) {
        // Judge the peak over the test span only; the training prefix
        // is anomaly-free by contract.
        row.peak_location =
            PredictLocation(*scores, perturbed.train_length());
        row.discrimination = Discrimination(*scores);
        if (!perturbed.anomalies().empty() &&
            row.peak_location != kNoPrediction) {
          const AnomalyRegion& a = perturbed.anomalies().front();
          const std::size_t lo =
              a.begin > config.slop ? a.begin - config.slop : 0;
          const std::size_t hi = a.end + config.slop;
          row.peak_correct =
              row.peak_location >= lo && row.peak_location < hi;
        }
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

}  // namespace tsad
