// FFT support for MASS (Mueen's Algorithm for Similarity Search), the
// sliding-dot-product kernel under MASS distance profiles and spectral
// residual.
//
// We implement an iterative radix-2 Cooley-Tukey transform and provide
// power-of-two padding helpers; callers (MASS) pad to the next power of
// two, so no Bluestein stage is needed. Everything here is
// self-contained, with no shared state: twiddle factors are recomputed
// per call.

#ifndef TSAD_COMMON_FFT_H_
#define TSAD_COMMON_FFT_H_

#include <complex>
#include <cstddef>
#include <vector>

namespace tsad {

/// In-place iterative radix-2 FFT. `inverse` applies the conjugate
/// transform and the 1/N scaling.
///
/// The transform length must be a power of two; this is enforced in
/// ALL build modes (not just debug asserts): a non-power-of-two input
/// is zero-padded in place to NextPowerOfTwo(x.size()), so x may grow.
/// Callers that care about the exact transform length (all of MASS
/// does) should pad explicitly, as SlidingDotProduct already does; the
/// internal padding is a release-build safety net, never silent
/// garbage. An empty input is a no-op.
void Fft(std::vector<std::complex<double>>& x, bool inverse);

/// Smallest power of two >= n (n = 0 maps to 1).
std::size_t NextPowerOfTwo(std::size_t n);

/// Full linear cross-correlation-style sliding dot products via FFT:
/// given series t (length n) and query q (length m <= n), returns the
/// vector d of length n - m + 1 with
///   d[i] = sum_{j=0}^{m-1} t[i + j] * q[j].
/// Runs in O(n log n).
std::vector<double> SlidingDotProduct(const std::vector<double>& t,
                                      const std::vector<double>& q);

/// Naive O(n*m) reference of SlidingDotProduct, used by tests and as a
/// fallback for tiny inputs.
std::vector<double> SlidingDotProductNaive(const std::vector<double>& t,
                                           const std::vector<double>& q);

}  // namespace tsad

#endif  // TSAD_COMMON_FFT_H_
