// FFT support for the spectral detectors: seasonal ESD's period filter
// (every lag's autocorrelation estimate from one transform pair) and
// spectral residual's saliency map.
//
// We implement an iterative radix-2 Cooley-Tukey transform and a
// power-of-two padding helper; both callers pad to the next power of
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
/// Callers that care about the exact transform length should pad
/// explicitly, as both callers do; the internal padding is a
/// release-build safety net, never silent garbage. An empty input is a
/// no-op.
void Fft(std::vector<std::complex<double>>& x, bool inverse);

/// Smallest power of two >= n (n = 0 maps to 1).
std::size_t NextPowerOfTwo(std::size_t n);

}  // namespace tsad

#endif  // TSAD_COMMON_FFT_H_
