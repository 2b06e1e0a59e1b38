#include "common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace tsad {

double Mean(const std::vector<double>& x) {
  if (x.empty()) return 0.0;
  long double sum = 0.0L;
  for (double v : x) sum += v;
  return static_cast<double>(sum / static_cast<long double>(x.size()));
}

double Variance(const std::vector<double>& x) {
  if (x.empty()) return 0.0;
  const double m = Mean(x);
  long double acc = 0.0L;
  for (double v : x) acc += static_cast<long double>(v - m) * (v - m);
  return static_cast<double>(acc / static_cast<long double>(x.size()));
}

double StdDev(const std::vector<double>& x) { return std::sqrt(Variance(x)); }

double Min(const std::vector<double>& x) {
  if (x.empty()) return std::numeric_limits<double>::infinity();
  return *std::min_element(x.begin(), x.end());
}

double Max(const std::vector<double>& x) {
  if (x.empty()) return -std::numeric_limits<double>::infinity();
  return *std::max_element(x.begin(), x.end());
}

double Median(std::vector<double> x) {
  if (x.empty()) return 0.0;
  const std::size_t n = x.size();
  const std::size_t mid = n / 2;
  std::nth_element(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(mid),
                   x.end());
  double hi = x[mid];
  if (n % 2 == 1) return hi;
  double lo =
      *std::max_element(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

double Mad(const std::vector<double>& x) {
  if (x.empty()) return 0.0;
  const double med = Median(std::vector<double>(x));
  std::vector<double> dev(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) dev[i] = std::fabs(x[i] - med);
  return Median(std::move(dev));
}

double Quantile(std::vector<double> x, double q) {
  if (x.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::sort(x.begin(), x.end());
  const double pos = q * static_cast<double>(x.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, x.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return x[lo] * (1.0 - frac) + x[hi] * frac;
}

long double AutocovarianceSum(const std::vector<double>& x, double mean,
                              std::size_t lag) {
  long double sum = 0.0L;
  for (std::size_t i = 0; i + lag < x.size(); ++i) {
    sum += static_cast<long double>(x[i] - mean) * (x[i + lag] - mean);
  }
  return sum;
}

double Autocorrelation(const std::vector<double>& x, std::size_t lag) {
  const std::size_t n = x.size();
  if (lag >= n || n < 2) return 0.0;
  const double m = Mean(x);
  const long double den = AutocovarianceSum(x, m, 0);
  if (den <= 0.0L) return 0.0;
  return static_cast<double>(AutocovarianceSum(x, m, lag) / den);
}

double ComplexityEstimate(const std::vector<double>& x) {
  long double acc = 0.0L;
  for (std::size_t i = 0; i + 1 < x.size(); ++i) {
    const long double d = static_cast<long double>(x[i + 1]) - x[i];
    acc += d * d;
  }
  return std::sqrt(static_cast<double>(acc));
}

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  assert(a.size() == b.size());
  const std::size_t n = a.size();
  if (n < 2) return 0.0;
  const double ma = Mean(a), mb = Mean(b);
  long double num = 0.0L, da = 0.0L, db = 0.0L;
  for (std::size_t i = 0; i < n; ++i) {
    num += static_cast<long double>(a[i] - ma) * (b[i] - mb);
    da += static_cast<long double>(a[i] - ma) * (a[i] - ma);
    db += static_cast<long double>(b[i] - mb) * (b[i] - mb);
  }
  if (da <= 0.0L || db <= 0.0L) return 0.0;
  return static_cast<double>(num / std::sqrt(static_cast<double>(da) *
                                             static_cast<double>(db)));
}

RegionProfile ProfileRegion(const std::vector<double>& x, std::size_t begin,
                            std::size_t end) {
  begin = std::min(begin, x.size());
  end = std::min(end, x.size());
  if (begin > end) std::swap(begin, end);
  std::vector<double> region(x.begin() + static_cast<std::ptrdiff_t>(begin),
                             x.begin() + static_cast<std::ptrdiff_t>(end));
  RegionProfile p;
  p.mean = Mean(region);
  p.min = Min(region);
  p.max = Max(region);
  p.variance = Variance(region);
  p.autocorr_lag1 = Autocorrelation(region, 1);
  p.complexity = ComplexityEstimate(region);
  return p;
}

}  // namespace tsad
