// Seasonal-Hybrid-ESD-style detector (Twitter's AnomalyDetection,
// Hochenbaum/Vallis/Kejariwal 2017): decompose the series into trend +
// seasonal + residual, then run a robust generalized-ESD-flavored test
// on the residuals. Another pre-deep-learning classic for the paper's
// §4.5 roster ("existing methods ... may be competitive").
//
// Decomposition (STL-lite):
//   trend    = centered moving average over one season
//   seasonal = per-phase median of the detrended series
//   residual = x - trend - seasonal
// Scoring: robust z of the residual, |r - median| / (1.4826 * MAD) —
// the ESD test statistic with median/MAD in place of mean/std, reported
// per point rather than iteratively thresholded so the track composes
// with every scoring protocol in scoring/.

#ifndef TSAD_DETECTORS_SEASONAL_ESD_H_
#define TSAD_DETECTORS_SEASONAL_ESD_H_

#include <cstddef>

#include "detectors/detector.h"

namespace tsad {

/// The decomposition, exposed for inspection/plotting (§4.3).
struct SeasonalDecomposition {
  std::vector<double> trend;
  std::vector<double> seasonal;  // one value per phase, tiled to length n
  std::vector<double> residual;
};

/// Decomposes x with the given seasonal period (>= 2; period > n/2 is
/// InvalidArgument, for every period up to SIZE_MAX).
Result<SeasonalDecomposition> DecomposeSeasonal(const Series& x,
                                                std::size_t period);

class SeasonalEsdDetector : public AnomalyDetector {
 public:
  /// `period`: the dominant seasonality in points. 0 = estimate it from
  /// the autocorrelation function (EstimatePeriod over [4, n/3]). A
  /// period above n/2 leaves no full season: the series is detrended
  /// only.
  explicit SeasonalEsdDetector(std::size_t period = 0);

  std::string_view name() const override { return name_; }
  using AnomalyDetector::Score;
  Result<std::vector<double>> Score(const Series& series,
                                    std::size_t train_length) const override;

 private:
  std::size_t period_;
  std::string name_;
};

/// Estimates the dominant period via the ACF: the lowest lag in
/// [min_lag, max_lag] (max_lag 0 = n/3, min_lag raised to 2) with the
/// highest ACF above 0.25, then halved toward the fundamental while it
/// is >= 2 * min_lag and the ACF at half of it exceeds 0.9 times that
/// highest ACF. Returns 0 when no lag clears 0.25 or n < 3 * min_lag.
///
/// Filter and refine: one FFT of the centered series estimates every
/// lag's ACF, and the exact long-double ACF (Autocorrelation's
/// arithmetic) runs only on lags whose estimate is within 3e-6 of the
/// best estimate and not below 0.25 - 1e-6. While each estimate is
/// within 1e-6 of its exact value (the FFT's error is ~1e-15 of the
/// series scaled to unit peak), that set holds every lag that can win,
/// so the answer is the full exact scan's. A non-finite estimate falls
/// back to that full scan; the halving steps are always exact.
std::size_t EstimatePeriod(const Series& x, std::size_t min_lag = 4,
                           std::size_t max_lag = 0);

}  // namespace tsad

#endif  // TSAD_DETECTORS_SEASONAL_ESD_H_
