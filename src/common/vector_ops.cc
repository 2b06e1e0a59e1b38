#include "common/vector_ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace tsad {

void AppendPrefixSums(const double* x, std::size_t n,
                      std::vector<long double>* sums,
                      std::vector<long double>* sq) {
  long double s = sums->back();
  for (std::size_t i = 0; i < n; ++i) sums->push_back(s += x[i]);
  if (sq == nullptr) return;
  long double ss = sq->back();
  for (std::size_t i = 0; i < n; ++i) {
    sq->push_back(ss += static_cast<long double>(x[i]) * x[i]);
  }
}

std::vector<long double> PrefixSums(const std::vector<double>& x,
                                    std::vector<long double>* sq) {
  std::vector<long double> sums{0.0L};
  sums.reserve(x.size() + 1);
  if (sq != nullptr) {
    sq->assign(1, 0.0L);
    sq->reserve(x.size() + 1);
  }
  AppendPrefixSums(x.data(), x.size(), &sums, sq);
  return sums;
}

void CenteredWindow(std::size_t i, std::size_t n, std::size_t k,
                    std::size_t* lo, std::size_t* hi) {
  const std::size_t before = k / 2;
  const std::size_t after = (k - 1) / 2;
  *lo = i >= before ? i - before : 0;
  *hi = std::min(n, i + after + 1);
}

double WindowMean(const std::vector<long double>& sums, std::size_t lo,
                  std::size_t hi) {
  return static_cast<double>((sums[hi] - sums[lo]) /
                             static_cast<long double>(hi - lo));
}

double WindowStd(const std::vector<long double>& sums,
                 const std::vector<long double>& sq, std::size_t lo,
                 std::size_t hi) {
  const std::size_t m = hi - lo;
  if (m < 2) return 0.0;
  const long double s = sums[hi] - sums[lo];
  const long double ss = sq[hi] - sq[lo];
  long double var = (ss - s * s / static_cast<long double>(m)) /
                    static_cast<long double>(m - 1);
  if (var < 0.0L) var = 0.0L;  // guard against catastrophic cancellation
  return static_cast<double>(std::sqrt(static_cast<double>(var)));
}

std::vector<double> Diff(const std::vector<double>& x) {
  if (x.size() < 2) return {};
  std::vector<double> out(x.size() - 1);
  for (std::size_t i = 0; i + 1 < x.size(); ++i) out[i] = x[i + 1] - x[i];
  return out;
}

std::vector<double> Abs(std::vector<double> x) {
  for (double& v : x) v = std::fabs(v);
  return x;
}

std::vector<double> MovMean(const std::vector<double>& x, std::size_t k) {
  std::vector<double> out(x.size());
  MovMeanFromSums(PrefixSums(x, nullptr), k, 0, x.size(), out.data());
  return out;
}

std::vector<double> MovStd(const std::vector<double>& x, std::size_t k) {
  std::vector<long double> sq;
  const std::vector<long double> sums = PrefixSums(x, &sq);
  std::vector<double> out(x.size());
  MovStdFromSums(sums, sq, k, 0, x.size(), out.data());
  return out;
}

void MovMeanFromSums(const std::vector<long double>& sums, std::size_t k,
                     std::size_t lo, std::size_t hi, double* out) {
  assert(k >= 1 && lo <= hi && hi < sums.size());
  const std::size_t n = sums.size() - 1;
  for (std::size_t i = lo; i < hi; ++i) {
    std::size_t wlo, whi;
    CenteredWindow(i, n, k, &wlo, &whi);
    out[i] = WindowMean(sums, wlo, whi);
  }
}

void MovStdFromSums(const std::vector<long double>& sums,
                    const std::vector<long double>& sq, std::size_t k,
                    std::size_t lo, std::size_t hi, double* out) {
  assert(k >= 1 && lo <= hi && hi < sums.size());
  const std::size_t n = sums.size() - 1;
  for (std::size_t i = lo; i < hi; ++i) {
    std::size_t wlo, whi;
    CenteredWindow(i, n, k, &wlo, &whi);
    out[i] = WindowStd(sums, sq, wlo, whi);
  }
}

std::vector<double> TrailingMean(const std::vector<double>& x, std::size_t k) {
  assert(k >= 1);
  const std::size_t n = x.size();
  const std::vector<long double> sums = PrefixSums(x, nullptr);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = WindowMean(sums, i + 1 >= k ? i + 1 - k : 0, i + 1);
  }
  return out;
}

void ZNormalizeInPlace(std::vector<double>& x) {
  if (x.empty()) return;
  long double sum = 0.0L, sq = 0.0L;
  for (double v : x) {
    sum += v;
    sq += static_cast<long double>(v) * v;
  }
  const WindowMoments w =
      MomentsFromSums(sum, sq, static_cast<long double>(x.size()));
  if (w.stddev < 1e-12) {
    for (double& v : x) v -= w.mean;
  } else {
    for (double& v : x) v = (v - w.mean) / w.stddev;
  }
}

std::vector<double> ZNormalize(std::vector<double> x) {
  ZNormalizeInPlace(x);
  return x;
}

std::vector<double> Add(const std::vector<double>& a,
                        const std::vector<double>& b) {
  assert(a.size() == b.size());
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

std::vector<double> Subtract(const std::vector<double>& a,
                             const std::vector<double>& b) {
  assert(a.size() == b.size());
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

std::vector<double> PadLeft(const std::vector<double>& x, std::size_t pad,
                            double value) {
  std::vector<double> out;
  out.reserve(x.size() + pad);
  out.assign(pad, value);
  out.insert(out.end(), x.begin(), x.end());
  return out;
}

std::vector<double> Ewma(const std::vector<double>& x, double alpha) {
  assert(alpha > 0.0 && alpha <= 1.0);
  std::vector<double> out(x.size());
  if (x.empty()) return out;
  out[0] = x[0];
  for (std::size_t i = 1; i < x.size(); ++i) {
    out[i] = alpha * x[i] + (1.0 - alpha) * out[i - 1];
  }
  return out;
}

}  // namespace tsad
