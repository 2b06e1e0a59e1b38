// Subsequence utilities shared by the matrix-profile substrate and the
// discord detectors: O(n) rolling mean/std of all length-m subsequences
// and subsequence extraction.

#ifndef TSAD_SUBSTRATES_SLIDING_WINDOW_H_
#define TSAD_SUBSTRATES_SLIDING_WINDOW_H_

#include <cstddef>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace tsad {

/// Rolling mean and population standard deviation of every length-m
/// subsequence of a series: means[i] / stds[i] describe x[i, i+m).
/// Vectors have length n - m + 1 (empty if m == 0 or m > n).
struct WindowStats {
  std::vector<double> means;
  std::vector<double> stds;

  std::size_t size() const { return means.size(); }
};

/// Computes rolling window statistics in O(n) with long-double
/// accumulation.
WindowStats ComputeWindowStats(const std::vector<double>& x, std::size_t m);

/// Copies the subsequence x[start, start+m). Precondition:
/// start + m <= x.size() (asserts).
std::vector<double> Subsequence(const std::vector<double>& x,
                                std::size_t start, std::size_t m);

/// Number of length-m subsequences of a length-n series (0 if m == 0 or
/// m > n).
inline std::size_t NumSubsequences(std::size_t n, std::size_t m) {
  return (m == 0 || m > n) ? 0 : n - m + 1;
}

/// OK when a length-n series holds at least 2 length-m subsequences,
/// the fewest a profile has a neighbour in; InvalidArgument ("series
/// too short") otherwise. The self-join and left-profile kernels, FLOSS
/// and streaming discord all refuse a short series with it.
Status CheckTwoSubsequences(std::size_t n, std::size_t m);

/// OK when m >= 3; otherwise InvalidArgument naming `detector`. With
/// the default m/2 exclusion zone, shorter windows admit
/// adjacent-offset trivial matches and the profile degenerates to near
/// zero everywhere, so FLOSS and streaming discord refuse them.
Status CheckSubsequenceLength(std::string_view detector, std::size_t m);

/// Finds maximal runs of (near-)constant values: consecutive points
/// differing by at most `tolerance`, of length at least `min_length`.
/// Returned as half-open [begin, end) index pairs. This is the primitive
/// behind the NASA "dynamic series suddenly becomes constant" analysis
/// (paper §2.2, Fig 9) and the diff(diff(TS)) == 0 one-liner.
std::vector<std::pair<std::size_t, std::size_t>> FindConstantRuns(
    const std::vector<double>& x, std::size_t min_length, double tolerance);

}  // namespace tsad

#endif  // TSAD_SUBSTRATES_SLIDING_WINDOW_H_
