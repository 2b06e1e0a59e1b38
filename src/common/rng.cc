#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace tsad {

namespace {

constexpr double kPi = 3.14159265358979323846;

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

inline uint64_t Rotl(uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(uint64_t seed) : seed_(seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  const uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<int64_t>(NextUint64());  // full range
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t v;
  do {
    v = NextUint64();
  } while (v >= limit);
  return lo + static_cast<int64_t>(v % range);
}

double Rng::Gaussian() {
  // Box-Muller; u1 nudged away from 0 to keep log finite.
  double u1 = NextDouble();
  const double u2 = NextDouble();
  if (u1 < 1e-300) u1 = 1e-300;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * kPi * u2);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

double Rng::Exponential(double lambda) {
  assert(lambda > 0.0);
  double u = NextDouble();
  if (u < 1e-300) u = 1e-300;
  return -std::log(u) / lambda;
}

uint64_t Rng::Poisson(double mean) {
  assert(mean >= 0.0);
  if (mean <= 0.0) return 0;
  if (mean > 64.0) {
    // Normal approximation with continuity correction.
    const double v = Gaussian(mean, std::sqrt(mean));
    return v <= 0.0 ? 0 : static_cast<uint64_t>(v + 0.5);
  }
  const double limit = std::exp(-mean);
  uint64_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= NextDouble();
  } while (p > limit);
  return k - 1;
}

Rng Rng::Fork(uint64_t stream) const {
  // Mix the original seed with the stream id through SplitMix64 so
  // forked generators are independent of draw order on the parent.
  uint64_t mix = seed_ ^ (0xA0761D6478BD642FULL * (stream + 1));
  const uint64_t derived = SplitMix64(mix);
  return Rng(derived);
}

}  // namespace tsad
