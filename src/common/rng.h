// Deterministic random number generation for dataset simulators.
//
// Every archive generator in this library takes an explicit 64-bit seed
// and produces bit-identical output across runs and platforms. We use
// our own xoshiro256** implementation (std::mt19937 distributions are
// not guaranteed identical across standard library implementations).

#ifndef TSAD_COMMON_RNG_H_
#define TSAD_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tsad {

/// xoshiro256** PRNG seeded via SplitMix64. Deterministic across
/// platforms; not cryptographically secure (nor does it need to be).
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t NextUint64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal via Box-Muller (deterministic, no cached spare —
  /// each call consumes exactly two uniforms).
  double Gaussian();

  /// Normal with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p);

  /// Exponential with rate lambda (> 0).
  double Exponential(double lambda);

  /// Poisson-distributed count with the given mean (Knuth's algorithm
  /// for small means, normal approximation above 64).
  uint64_t Poisson(double mean);

  /// A derived generator: deterministic function of this generator's
  /// seed lineage and `stream`. Lets one master seed drive many
  /// independent series without consuming state in order-dependent
  /// ways. Reads only the seed, so threads may fork one master at once.
  Rng Fork(uint64_t stream) const;

 private:
  uint64_t state_[4];
  uint64_t seed_;  // retained for Fork()
};

}  // namespace tsad

#endif  // TSAD_COMMON_RNG_H_
