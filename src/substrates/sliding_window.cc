#include "substrates/sliding_window.h"

#include <cassert>
#include <cmath>
#include <string>

#include "common/vector_ops.h"

namespace tsad {

Status CheckTwoSubsequences(std::size_t n, std::size_t m) {
  if (NumSubsequences(n, m) >= 2) return Status::OK();
  return Status::InvalidArgument(
      "series too short: need at least 2 subsequences of length " +
      std::to_string(m));
}

Status CheckSubsequenceLength(std::string_view detector, std::size_t m) {
  if (m >= 3) return Status::OK();
  return Status::InvalidArgument(
      std::string(detector) + " requires subsequence length m >= 3, got m=" +
      std::to_string(m) +
      " (the m/2 exclusion zone degenerates for shorter windows)");
}

WindowStats ComputeWindowStats(const std::vector<double>& x, std::size_t m) {
  WindowStats stats;
  const std::size_t n = x.size();
  if (m == 0 || m > n) return stats;
  const std::size_t count = n - m + 1;
  stats.means.resize(count);
  stats.stds.resize(count);

  std::vector<long double> sq;
  const std::vector<long double> sums = PrefixSums(x, &sq);
  const long double dm = static_cast<long double>(m);
  for (std::size_t i = 0; i < count; ++i) {
    const WindowMoments w =
        MomentsFromSums(sums[i + m] - sums[i], sq[i + m] - sq[i], dm);
    stats.means[i] = w.mean;
    stats.stds[i] = w.stddev;
  }
  return stats;
}

std::vector<double> Subsequence(const std::vector<double>& x,
                                std::size_t start, std::size_t m) {
  assert(start + m <= x.size());
  return std::vector<double>(
      x.begin() + static_cast<std::ptrdiff_t>(start),
      x.begin() + static_cast<std::ptrdiff_t>(start + m));
}

std::vector<std::pair<std::size_t, std::size_t>> FindConstantRuns(
    const std::vector<double>& x, std::size_t min_length, double tolerance) {
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  const std::size_t n = x.size();
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i + 1;
    while (j < n && std::fabs(x[j] - x[j - 1]) <= tolerance) ++j;
    if (j - i >= min_length) runs.emplace_back(i, j);
    i = j;
  }
  return runs;
}

}  // namespace tsad
