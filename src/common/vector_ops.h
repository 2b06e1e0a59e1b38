// Vectorized primitive operations mirroring the MATLAB built-ins the
// paper's "one-liner" detectors are made of: diff, abs, movmean,
// movstd, plus the usual supporting cast (z-normalization, argmax,
// ...).
//
// Semantics deliberately follow MATLAB where the paper depends on them:
//  * Diff(x) has length n-1, Diff(x)[i] = x[i+1] - x[i].
//  * MovMean(x, k) / MovStd(x, k) are centered moving windows of length
//    k, truncated at the boundaries (MATLAB's default 'Endpoints'
//    behaviour), output length n.
//  * MovStd uses the unbiased (n-1) normalization like MATLAB's default.

#ifndef TSAD_COMMON_VECTOR_OPS_H_
#define TSAD_COMMON_VECTOR_OPS_H_

#include <cmath>
#include <cstddef>
#include <vector>

namespace tsad {

/// First difference: out[i] = x[i+1] - x[i]; length n-1 (empty if n<2).
std::vector<double> Diff(const std::vector<double>& x);

/// Element-wise absolute value.
std::vector<double> Abs(std::vector<double> x);

/// Extends long-double prefix sums by x[0, n): entry i of `*sums` is
/// the sum of the first i values appended and, when `sq` is non-null,
/// entry i of `*sq` the sum of their squares. Both start as {0}. Every
/// moving-window moment below is the difference of two entries, so a
/// stream appending one value at a time reads the same moments as a
/// batch pass.
void AppendPrefixSums(const double* x, std::size_t n,
                      std::vector<long double>* sums,
                      std::vector<long double>* sq);

/// The prefix sums of the whole of x (AppendPrefixSums from {0}), and
/// of its squares into `*sq` when `sq` is non-null.
std::vector<long double> PrefixSums(const std::vector<double>& x,
                                    std::vector<long double>* sq);

/// Population mean and standard deviation of a window of values.
struct WindowMoments {
  double mean = 0.0;
  double stddev = 0.0;
};

/// The population moments of `count` values from their sum `s` and sum
/// of squares `ss`: the long-double mean s / count and variance
/// ss / count - mean^2, clamped at 0, then the mean rounded to double
/// and the sqrt of the variance rounded to double. Every
/// population-moment path (ComputeWindowStats, StreamingMpx, the moving
/// z-score and ZNormalizeInPlace) converts its sums here, so they round
/// alike.
inline WindowMoments MomentsFromSums(long double s, long double ss,
                                     long double count) {
  const long double mean = s / count;
  long double var = ss / count - mean * mean;
  if (var < 0.0L) var = 0.0L;
  return {static_cast<double>(mean), std::sqrt(static_cast<double>(var))};
}

/// MATLAB's centered window of length k (k >= 1) around index i of an
/// n-value track: k/2 values back and (k-1)/2 ahead, truncated to
/// [0, n). Returns the bounds as [*lo, *hi).
void CenteredWindow(std::size_t i, std::size_t n, std::size_t k,
                    std::size_t* lo, std::size_t* hi);

/// Mean of the values in [lo, hi) (lo < hi), from their prefix sums.
double WindowMean(const std::vector<long double>& sums, std::size_t lo,
                  std::size_t hi);

/// Unbiased (N-1) standard deviation of the values in [lo, hi), from
/// their prefix sums and square sums; 0 for fewer than two values.
double WindowStd(const std::vector<long double>& sums,
                 const std::vector<long double>& sq, std::size_t lo,
                 std::size_t hi);

/// Centered moving mean with window length k (k >= 1), truncated
/// windows at the boundaries. MATLAB-compatible: for even k the window
/// extends one element further into the past than the future.
std::vector<double> MovMean(const std::vector<double>& x, std::size_t k);

/// Centered moving standard deviation (unbiased, N-1 normalization,
/// 0 for singleton windows), truncated at boundaries; MATLAB-compatible
/// window alignment.
std::vector<double> MovStd(const std::vector<double>& x, std::size_t k);

/// The window loops of MovMean and MovStd over the caller's prefix sums
/// (AppendPrefixSums from {0}) of a sums.size() - 1 value track,
/// restricted to entries [lo, hi) (lo <= hi <= track length) and
/// written to out[lo, hi), so several windows can share one set of sums
/// and a caller can fill only the entries it reads. MovMean and MovStd
/// run them over the whole track.
void MovMeanFromSums(const std::vector<long double>& sums, std::size_t k,
                     std::size_t lo, std::size_t hi, double* out);
void MovStdFromSums(const std::vector<long double>& sums,
                    const std::vector<long double>& sq, std::size_t k,
                    std::size_t lo, std::size_t hi, double* out);

/// Trailing (causal) moving mean over the last k samples (fewer at the
/// start). Used by streaming-style detectors.
std::vector<double> TrailingMean(const std::vector<double>& x, std::size_t k);

/// Z-normalizes x in place to zero mean, unit (population) standard
/// deviation. If the std is ~0 the series is centered only.
void ZNormalizeInPlace(std::vector<double>& x);

/// Returns a z-normalized copy of x.
std::vector<double> ZNormalize(std::vector<double> x);

/// Element-wise a + b. Precondition: equal sizes (asserts).
std::vector<double> Add(const std::vector<double>& a,
                        const std::vector<double>& b);

/// Element-wise a - b. Precondition: equal sizes (asserts).
std::vector<double> Subtract(const std::vector<double>& a,
                             const std::vector<double>& b);

/// Pads `x` on the left with `pad` copies of `value` (used to restore
/// alignment after Diff so scores line up with the original series).
std::vector<double> PadLeft(const std::vector<double>& x, std::size_t pad,
                            double value);

/// Exponentially weighted moving average with smoothing factor alpha in
/// (0, 1]; out[0] = x[0].
std::vector<double> Ewma(const std::vector<double>& x, double alpha);

}  // namespace tsad

#endif  // TSAD_COMMON_VECTOR_OPS_H_
