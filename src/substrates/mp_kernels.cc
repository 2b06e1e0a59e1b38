// Baseline-ISA home of the kernel-variant registry and the shared
// scalar building blocks (see mp_kernels.h for the bit-identity
// contract that hinges on these being compiled exactly once, here).

#include "substrates/mp_kernels.h"

#include <cmath>

namespace tsad {

double MpxSeedCov(const double* series_a, const double* means_a,
                  const double* series_b, const double* means_b,
                  std::size_t a, std::size_t b, std::size_t m) {
  const double mu_a = means_a[a];
  const double mu_b = means_b[b];
  double c = 0.0;
  for (std::size_t k = 0; k < m; ++k) {
    c += (series_a[a + k] - mu_a) * (series_b[b + k] - mu_b);
  }
  return c;
}

namespace {

// One template for the three update sides: the side is the ONLY
// difference between them, and keeping the arithmetic chain literally
// shared is what makes the three (and the vector variants' per-lane
// chains) provably identical.
template <bool kUpdateA, bool kUpdateB>
void MpxScalarRange(const MpxBlockArgs& a, std::size_t d_begin,
                    std::size_t d_end) {
  for (std::size_t d = d_begin; d < d_end; ++d) {
    const std::size_t len_b = a.count_b - d;  // offsets valid in [0, len)
    const std::size_t len = a.count_a < len_b ? a.count_a : len_b;
    if (a.r0 >= len) break;  // d ascending => len non-increasing
    const std::size_t end = a.r1 < len ? a.r1 : len;
    double c = MpxSeedCov(a.series_a, a.means_a, a.series_b, a.means_b,
                          a.r0, a.r0 + d, a.m);
    MpxUpdatePair<kUpdateA, kUpdateB>(
        a, c * a.inv_a[a.r0] * a.inv_b[a.r0 + d], a.r0, a.r0 + d);
    for (std::size_t o = a.r0 + 1; o < end; ++o) {
      c += a.ddf_a[o] * a.ddg_b[o + d] + a.ddf_b[o + d] * a.ddg_a[o];
      MpxUpdatePair<kUpdateA, kUpdateB>(a, c * a.inv_a[o] * a.inv_b[o + d],
                                        o, o + d);
    }
  }
}

}  // namespace

void MpxBlockScalarRange(const MpxBlockArgs& args, std::size_t d_begin,
                         std::size_t d_end) {
  switch (args.update) {
    case MpxUpdate::kA:
      return MpxScalarRange<true, false>(args, d_begin, d_end);
    case MpxUpdate::kB:
      return MpxScalarRange<false, true>(args, d_begin, d_end);
    case MpxUpdate::kBoth:
      return MpxScalarRange<true, true>(args, d_begin, d_end);
  }
}

void PanCovRowScalarRange(const PanCovRowArgs& a, std::size_t j_begin,
                          std::size_t j_end) {
  for (std::size_t j = j_begin; j < j_end; ++j) {
    a.out[j] =
        MpxSeedCov(a.series, a.means, a.series, a.means, a.pos, j, a.m);
  }
}

void MpxAdvanceLagsScalarRange(MpxAdvanceLagsArgs& a, std::size_t k_begin,
                               std::size_t k_end) {
  for (std::size_t k = k_begin; k < k_end; ++k) {
    const std::size_t lag = a.exclusion + 1 + k;
    const std::size_t i = a.j - lag;
    const std::size_t il = i - a.base;
    double c;
    if ((a.j + lag) % a.reseed == 0) {
      c = MpxSeedCov(a.x, a.means, a.x, a.means, il, a.jl, a.m);
    } else {
      c = a.diag_cov[k] + a.ddf[il] * a.ddg[a.jl] + a.ddf[a.jl] * a.ddg[il];
    }
    a.diag_cov[k] = c;
    const double corr = c * a.inv[il] * a.inv_j;
    if (corr > a.right_corr[il]) {
      if (a.changes != nullptr) a.changes->Record(il, a.right_idx[il]);
      a.right_corr[il] = corr;
      a.right_idx[il] = a.j;
    }
    if (corr > a.best || (corr == a.best && i < a.best_i)) {
      a.best = corr;
      a.best_i = i;
    }
  }
}

const MpKernelVariant& KernelVariantFor(SimdTier tier) {
  static const MpKernelVariant table[kNumSimdTiers] = {
      mp_kernels_internal::ScalarVariant(),
#if defined(TSAD_MP_KERNELS_X86)
      mp_kernels_internal::Sse2Variant(),
      mp_kernels_internal::Avx2Variant(),
      mp_kernels_internal::Avx512Variant(),
#else
      // Non-x86: cpu_features never detects or admits a wider tier, so
      // these slots are unreachable through ActiveSimdTier; mapping
      // them to scalar keeps KernelVariantFor total anyway.
      mp_kernels_internal::ScalarVariant(),
      mp_kernels_internal::ScalarVariant(),
      mp_kernels_internal::ScalarVariant(),
#endif
  };
  return table[static_cast<int>(tier)];
}

const MpKernelVariant& ActiveKernelVariant() {
  return KernelVariantFor(ActiveSimdTier());
}

}  // namespace tsad
