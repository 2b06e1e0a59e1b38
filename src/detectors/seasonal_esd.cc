#include "detectors/seasonal_esd.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <vector>

#include "common/fft.h"
#include "common/stats.h"
#include "common/vector_ops.h"

namespace tsad {

Result<SeasonalDecomposition> DecomposeSeasonal(const Series& x,
                                                std::size_t period) {
  const std::size_t n = x.size();
  if (period < 2) return Status::InvalidArgument("period must be >= 2");
  if (period > n / 2) {
    return Status::InvalidArgument(
        "period " + std::to_string(period) +
        " too long for series of length " + std::to_string(n));
  }
  SeasonalDecomposition d;
  d.trend = MovMean(x, period % 2 == 0 ? period + 1 : period);

  // Per-phase medians of the detrended series.
  std::vector<std::vector<double>> phase_values(period);
  for (std::size_t i = 0; i < n; ++i) {
    phase_values[i % period].push_back(x[i] - d.trend[i]);
  }
  std::vector<double> phase_median(period);
  for (std::size_t p = 0; p < period; ++p) {
    phase_median[p] = Median(std::move(phase_values[p]));
  }
  // Center the seasonal component so it does not absorb level.
  const double seasonal_mean = Mean(phase_median);
  d.seasonal.resize(n);
  d.residual.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    d.seasonal[i] = phase_median[i % period] - seasonal_mean;
    d.residual[i] = x[i] - d.trend[i] - d.seasonal[i];
  }
  return d;
}

std::size_t EstimatePeriod(const Series& x, std::size_t min_lag,
                           std::size_t max_lag) {
  const std::size_t n = x.size();
  if (max_lag == 0) max_lag = n / 3;
  if (min_lag < 2) min_lag = 2;
  if (max_lag <= min_lag || min_lag > n / 3) return 0;
  max_lag = std::min(max_lag, n - 1);  // a lag >= n has ACF 0

  const double mean = Mean(x);
  const long double den = AutocovarianceSum(x, mean, 0);
  // Constant or non-finite: every lag's ACF is 0 or NaN, and none wins.
  if (!(den > 0.0L)) return 0;
  const auto acf = [&](std::size_t lag) {
    return static_cast<double>(AutocovarianceSum(x, mean, lag) / den);
  };

  // Filter: every lag's ACF at once, from the power spectrum of the
  // centered series scaled to unit peak (so no square leaves the double
  // range), zero-padded past max_lag so no lag wraps around.
  double peak = 0.0;
  for (double v : x) peak = std::max(peak, std::fabs(v - mean));
  std::vector<std::complex<double>> spectrum(NextPowerOfTwo(n + max_lag));
  for (std::size_t i = 0; i < n; ++i) spectrum[i] = (x[i] - mean) / peak;
  Fft(spectrum, /*inverse=*/false);
  for (std::complex<double>& c : spectrum) c = std::norm(c);
  Fft(spectrum, /*inverse=*/true);
  const auto estimate = [&](std::size_t lag) {
    return spectrum[lag].real() / spectrum[0].real();
  };
  double best_estimate = -std::numeric_limits<double>::infinity();
  bool finite = true;
  for (std::size_t lag = min_lag; lag <= max_lag; ++lag) {
    const double e = estimate(lag);
    finite = finite && std::isfinite(e);
    best_estimate = std::max(best_estimate, e);
  }
  // Refine: while every estimate is within kSlack of its exact ACF, a
  // lag whose estimate is below this cutoff can neither clear the 0.25
  // bar nor tie the highest exact ACF, so the exact scan skips it. A
  // non-finite estimate (centered values beyond the double range)
  // scans every lag.
  constexpr double kSlack = 1e-6;
  const double cutoff =
      finite ? std::max(0.25, best_estimate - 2 * kSlack) - kSlack
             : -std::numeric_limits<double>::infinity();

  double best_acf = 0.25;  // require a clearly periodic signal
  std::size_t best_lag = 0;
  for (std::size_t lag = min_lag; lag <= max_lag; ++lag) {
    if (estimate(lag) < cutoff) continue;
    const double r = acf(lag);
    if (r > best_acf) {
      best_acf = r;
      best_lag = lag;
    }
  }
  // Prefer the FUNDAMENTAL: if lag/2 scores nearly as well, halve.
  while (best_lag >= 2 * min_lag && acf(best_lag / 2) > 0.9 * best_acf) {
    best_lag /= 2;
  }
  return best_lag;
}

SeasonalEsdDetector::SeasonalEsdDetector(std::size_t period)
    : period_(period),
      name_(period == 0 ? "SeasonalESD[auto]"
                        : "SeasonalESD[p=" + std::to_string(period) + "]") {}

Result<std::vector<double>> SeasonalEsdDetector::Score(
    const Series& series, std::size_t /*train_length*/) const {
  const std::size_t n = series.size();
  if (n < 16) return std::vector<double>(n, 0.0);

  std::size_t period = period_;
  if (period == 0) period = EstimatePeriod(series);
  std::vector<double> residual;
  if (period >= 2 && period <= n / 2) {
    TSAD_ASSIGN_OR_RETURN(SeasonalDecomposition d,
                          DecomposeSeasonal(series, period));
    residual = std::move(d.residual);
  } else {
    // No usable seasonality: detrend only.
    const std::vector<double> trend = MovMean(series, 25);
    residual = Subtract(series, trend);
  }

  const double med = Median(std::vector<double>(residual));
  double mad = 1.4826 * Mad(residual);
  if (mad < 1e-12) mad = 1e-12;
  std::vector<double> scores(n);
  for (std::size_t i = 0; i < n; ++i) {
    scores[i] = std::fabs(residual[i] - med) / mad;
  }
  return scores;
}

}  // namespace tsad
