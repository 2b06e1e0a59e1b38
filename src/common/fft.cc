#include "common/fft.h"

#include <cassert>
#include <cmath>

namespace tsad {

namespace {
constexpr double kPi = 3.14159265358979323846;
}  // namespace

std::size_t NextPowerOfTwo(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void Fft(std::vector<std::complex<double>>& x, bool inverse) {
  // The radix-2 butterflies require a power-of-two length. An assert
  // alone compiles out under NDEBUG and the loops below then silently
  // produce garbage, so the precondition is enforced in release builds
  // too: non-power-of-two inputs are zero-padded in place to the next
  // power of two (documented in the header; callers observe x.size()
  // growing). An empty input is a no-op.
  if (x.empty()) return;
  if ((x.size() & (x.size() - 1)) != 0) {
    x.resize(NextPowerOfTwo(x.size()));
  }
  const std::size_t n = x.size();
  assert(n > 0 && (n & (n - 1)) == 0 && "FFT size must be a power of two");

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }

  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = 2.0 * kPi / static_cast<double>(len) *
                         (inverse ? 1.0 : -1.0);
    const std::complex<double> wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t j = 0; j < len / 2; ++j) {
        const std::complex<double> u = x[i + j];
        const std::complex<double> v = x[i + j + len / 2] * w;
        x[i + j] = u + v;
        x[i + j + len / 2] = u - v;
        w *= wlen;
      }
    }
  }

  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& c : x) c *= inv_n;
  }
}

}  // namespace tsad
