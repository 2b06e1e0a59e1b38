// Spectral Residual detector (Ren et al., KDD 2019, minus the CNN
// head): the visual-saliency trick applied to time series. Compute the
// log-amplitude spectrum, subtract its local average (the "spectral
// residual"), transform back — the saliency map peaks where the series
// is locally surprising. Fast, parameter-light, and another simple
// method for the §4.5 roster; it rides on the FFT substrate
// (common/fft.h) that seasonal ESD also uses.

#ifndef TSAD_DETECTORS_SPECTRAL_RESIDUAL_H_
#define TSAD_DETECTORS_SPECTRAL_RESIDUAL_H_

#include <cstddef>

#include "detectors/detector.h"

namespace tsad {

/// Raw saliency map of the series (same length). Exposed so benches can
/// plot it (§4.3).
std::vector<double> SpectralResidualSaliency(const Series& series,
                                             std::size_t spectrum_window = 3);

class SpectralResidualDetector : public AnomalyDetector {
 public:
  /// `spectrum_window`: the moving-average window over the log
  /// spectrum (q in the paper, default 3). `score_window`: the local
  /// window used to normalize the saliency map into scores (z in the
  /// paper, default 21).
  explicit SpectralResidualDetector(std::size_t spectrum_window = 3,
                                    std::size_t score_window = 21);

  std::string_view name() const override { return name_; }
  using AnomalyDetector::Score;
  Result<std::vector<double>> Score(const Series& series,
                                    std::size_t train_length) const override;

 private:
  std::size_t spectrum_window_;
  std::size_t score_window_;
  std::string name_;
};

}  // namespace tsad

#endif  // TSAD_DETECTORS_SPECTRAL_RESIDUAL_H_
