// Scalar summary statistics used by the mislabel auditor (Fig 6 compares
// mean/min/max/variance/autocorrelation/complexity of candidate regions)
// and by dataset generators.

#ifndef TSAD_COMMON_STATS_H_
#define TSAD_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace tsad {

/// Arithmetic mean; 0 for an empty input.
double Mean(const std::vector<double>& x);

/// Population variance (N normalization); 0 if size < 1.
double Variance(const std::vector<double>& x);

/// Population standard deviation.
double StdDev(const std::vector<double>& x);

/// Minimum; +inf for empty input.
double Min(const std::vector<double>& x);

/// Maximum; -inf for empty input.
double Max(const std::vector<double>& x);

/// Median (interpolated for even sizes); 0 for empty input.
double Median(std::vector<double> x);

/// Median absolute deviation (raw, not scaled to sigma).
double Mad(const std::vector<double>& x);

/// Linear-interpolated quantile, q in [0, 1]; 0 for empty input.
double Quantile(std::vector<double> x, double q);

/// Sum over i of (x[i] - mean) * (x[i + lag] - mean): each difference
/// in double, the products summed in long double; 0 when lag >= n. At
/// lag 0 it is the sum of squares that normalizes Autocorrelation.
long double AutocovarianceSum(const std::vector<double>& x, double mean,
                              std::size_t lag);

/// Lag-l sample autocorrelation in [-1, 1]: AutocovarianceSum about
/// Mean(x) at lag l over the same at lag 0; 0 if undefined (constant
/// series or l >= n).
double Autocorrelation(const std::vector<double>& x, std::size_t lag);

/// "Complexity estimate" from the CID distance (Batista et al.):
/// sqrt(sum of squared first differences). Larger = more wiggly.
double ComplexityEstimate(const std::vector<double>& x);

/// Pearson correlation of two equal-length vectors; 0 if undefined.
double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b);

/// A small bundle of descriptive statistics for a region of a series —
/// exactly the checklist Fig 6 of the paper runs over the "rounded
/// bottom" regions ("mean, min, max, variance, autocorrelation,
/// complexity").
struct RegionProfile {
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double variance = 0.0;
  double autocorr_lag1 = 0.0;
  double complexity = 0.0;
};

/// Profiles x[begin, end). Out-of-range indices are clipped.
RegionProfile ProfileRegion(const std::vector<double>& x, std::size_t begin,
                            std::size_t end);

}  // namespace tsad

#endif  // TSAD_COMMON_STATS_H_
