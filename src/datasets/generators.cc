#include "datasets/generators.h"

#include <algorithm>
#include <cassert>
#include <cmath>


namespace tsad {

namespace {
constexpr double kTwoPi = 6.28318530717958647692;
}  // namespace

Series Sinusoid(std::size_t n, double period, double amplitude, double phase) {
  assert(period > 0.0);
  Series x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = amplitude *
           std::sin(kTwoPi * static_cast<double>(i) / period + phase);
  }
  return x;
}

Series MeanRevertingWalk(std::size_t n, double level, double step_std,
                         double reversion, Rng& rng) {
  Series x(n);
  double v = level;
  for (std::size_t i = 0; i < n; ++i) {
    v += reversion * (level - v) + rng.Gaussian(0.0, step_std);
    x[i] = v;
  }
  return x;
}

Series LinearTrend(std::size_t n, double start_value, double slope) {
  Series x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = start_value + slope * static_cast<double>(i);
  }
  return x;
}

Series GaussianNoise(std::size_t n, double stddev, Rng& rng) {
  Series x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = rng.Gaussian(0.0, stddev);
  return x;
}

Series Mix(const std::vector<Series>& components) {
  assert(!components.empty());
  Series out = components.front();
  for (std::size_t c = 1; c < components.size(); ++c) {
    assert(components[c].size() == out.size());
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += components[c][i];
  }
  return out;
}

AnomalyRegion InjectSpike(Series& x, std::size_t pos, double magnitude) {
  if (x.empty()) return {};
  pos = std::min(pos, x.size() - 1);
  x[pos] += magnitude;
  return {pos, pos + 1};
}

AnomalyRegion InjectDropout(Series& x, std::size_t pos, std::size_t width,
                            double floor_value) {
  if (x.empty() || width == 0) return {};
  pos = std::min(pos, x.size() - 1);
  const std::size_t end = std::min(x.size(), pos + width);
  for (std::size_t i = pos; i < end; ++i) x[i] = floor_value;
  return {pos, end};
}

AnomalyRegion InjectLevelShift(Series& x, std::size_t pos, double magnitude,
                               std::size_t label_width) {
  if (x.empty()) return {};
  pos = std::min(pos, x.size() - 1);
  for (std::size_t i = pos; i < x.size(); ++i) x[i] += magnitude;
  const std::size_t end = std::min(x.size(), pos + std::max<std::size_t>(
                                                       1, label_width));
  return {pos, end};
}

AnomalyRegion InjectFreeze(Series& x, std::size_t pos, std::size_t width) {
  if (x.empty() || width == 0) return {};
  pos = std::min(pos, x.size() - 1);
  const std::size_t end = std::min(x.size(), pos + width);
  for (std::size_t i = pos; i < end; ++i) x[i] = x[pos];
  return {pos, end};
}

AnomalyRegion InjectSmoothHump(Series& x, std::size_t pos, std::size_t width,
                               double magnitude) {
  if (x.empty() || width == 0) return {};
  pos = std::min(pos, x.size() - 1);
  const std::size_t end = std::min(x.size(), pos + width);
  const double span = static_cast<double>(end - pos);
  for (std::size_t i = pos; i < end; ++i) {
    const double t = (static_cast<double>(i - pos) + 0.5) / span;
    x[i] += magnitude * std::sin(t * 3.14159265358979323846);
  }
  return {pos, end};
}

AnomalyRegion InjectTimeWarp(Series& x, std::size_t pos, std::size_t width,
                             double stretch) {
  if (x.empty() || width < 4) return {};
  pos = std::min(pos, x.size() - 1);
  const std::size_t end = std::min(x.size(), pos + width);
  const std::size_t w = end - pos;
  // Take the leading fraction of the region and stretch it to fill the
  // whole region (stretch > 1 slows the signal down locally).
  stretch = std::max(1.01, stretch);
  const std::size_t src_len =
      std::max<std::size_t>(2, static_cast<std::size_t>(
                                   static_cast<double>(w) / stretch));
  const Series src(x.begin() + static_cast<std::ptrdiff_t>(pos),
                   x.begin() + static_cast<std::ptrdiff_t>(pos + src_len));
  Series warped = Resample(src, w);
  // Seam continuity: tilt the warped segment so its last point meets
  // the original value there, leaving no artificial jump at the right
  // seam (a jump would make the warp trivially one-liner visible).
  const double delta = x[pos + w - 1] - warped[w - 1];
  for (std::size_t i = 0; i < w; ++i) {
    warped[i] += delta * static_cast<double>(i + 1) / static_cast<double>(w);
  }
  for (std::size_t i = 0; i < w; ++i) x[pos + i] = warped[i];
  return {pos, end};
}

Series Resample(const Series& x, std::size_t target_length) {
  Series out(target_length);
  if (x.empty() || target_length == 0) return out;
  if (x.size() == 1) {
    std::fill(out.begin(), out.end(), x[0]);
    return out;
  }
  const double scale = static_cast<double>(x.size() - 1) /
                       static_cast<double>(
                           target_length > 1 ? target_length - 1 : 1);
  for (std::size_t i = 0; i < target_length; ++i) {
    const double t = static_cast<double>(i) * scale;
    const std::size_t lo = std::min(static_cast<std::size_t>(t), x.size() - 2);
    const double frac = t - static_cast<double>(lo);
    out[i] = x[lo] * (1.0 - frac) + x[lo + 1] * frac;
  }
  return out;
}

std::size_t PickPosition(Rng& rng, std::size_t lo, std::size_t hi,
                         std::size_t width, double end_bias) {
  assert(lo < hi);
  const std::size_t usable_hi = hi > width ? hi - width : lo + 1;
  if (usable_hi <= lo) return lo;
  const double span = static_cast<double>(usable_hi - lo);
  double u = rng.NextDouble();
  // Bias toward 1 by mixing in a power transform: u^(1/(1+4*bias))
  // concentrates mass near 1 as bias -> 1.
  end_bias = std::clamp(end_bias, 0.0, 1.0);
  if (end_bias > 0.0) {
    u = std::pow(u, 1.0 / (1.0 + 4.0 * end_bias));
  }
  return lo + static_cast<std::size_t>(u * span);
}

}  // namespace tsad
