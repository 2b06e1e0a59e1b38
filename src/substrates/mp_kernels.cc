// Baseline-ISA home of the kernel-variant registry and the shared
// scalar building blocks (see mp_kernels.h for the bit-identity
// contract that hinges on these being compiled exactly once, here).

#include "substrates/mp_kernels.h"

#include <cmath>

namespace tsad {

double MpxSeedCov(const double* series, const double* means, std::size_t a,
                  std::size_t b, std::size_t m) {
  const double mu_a = means[a];
  const double mu_b = means[b];
  double c = 0.0;
  for (std::size_t k = 0; k < m; ++k) {
    c += (series[a + k] - mu_a) * (series[b + k] - mu_b);
  }
  return c;
}

void MpxBlockScalarRange(const MpxBlockArgs& a, std::size_t d_begin,
                         std::size_t d_end) {
  for (std::size_t d = d_begin; d < d_end; ++d) {
    const std::size_t len = a.count - d;  // offsets valid in [0, len)
    if (a.r0 >= len) break;               // d ascending => len descending
    const std::size_t end = a.r1 < len ? a.r1 : len;
    double c = MpxSeedCov(a.series, a.means, a.r0, a.r0 + d, a.m);
    const double seed_corr = c * a.inv[a.r0] * a.inv[a.r0 + d];
    MpxUpdateBest(a.local_corr, a.local_index, seed_corr, a.r0, a.r0 + d);
    MpxUpdateBest(a.local_corr, a.local_index, seed_corr, a.r0 + d, a.r0);
    for (std::size_t o = a.r0 + 1; o < end; ++o) {
      c += a.ddf[o] * a.ddg[o + d] + a.ddf[o + d] * a.ddg[o];
      const double corr = c * a.inv[o] * a.inv[o + d];
      MpxUpdateBest(a.local_corr, a.local_index, corr, o, o + d);
      MpxUpdateBest(a.local_corr, a.local_index, corr, o + d, o);
    }
  }
}

double MpxSeedCovCross(const double* series_a, const double* means_a,
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

// One template instead of two hand-kept copies: the update side is the
// ONLY difference between the A and B cross ranges, and keeping the
// arithmetic chain literally shared is what makes the two exported
// ranges (and the vector variants' per-lane chains) provably identical.
template <bool kUpdateA>
void MpxCrossScalarRange(const MpxCrossBlockArgs& a, std::size_t d_begin,
                         std::size_t d_end) {
  for (std::size_t d = d_begin; d < d_end; ++d) {
    const std::size_t len_b = a.count_b - d;  // offsets valid in [0, len)
    const std::size_t len = a.count_a < len_b ? a.count_a : len_b;
    if (a.r0 >= len) break;  // d ascending => len non-increasing
    const std::size_t end = a.r1 < len ? a.r1 : len;
    double c = MpxSeedCovCross(a.series_a, a.means_a, a.series_b, a.means_b,
                               a.r0, a.r0 + d, a.m);
    const double seed_corr = c * a.inv_a[a.r0] * a.inv_b[a.r0 + d];
    if (kUpdateA) {
      MpxUpdateBest(a.local_corr, a.local_index, seed_corr, a.r0, a.r0 + d);
    } else {
      MpxUpdateBest(a.local_corr, a.local_index, seed_corr, a.r0 + d, a.r0);
    }
    for (std::size_t o = a.r0 + 1; o < end; ++o) {
      c += a.ddf_a[o] * a.ddg_b[o + d] + a.ddf_b[o + d] * a.ddg_a[o];
      const double corr = c * a.inv_a[o] * a.inv_b[o + d];
      if (kUpdateA) {
        MpxUpdateBest(a.local_corr, a.local_index, corr, o, o + d);
      } else {
        MpxUpdateBest(a.local_corr, a.local_index, corr, o + d, o);
      }
    }
  }
}

}  // namespace

void MpxCrossBlockScalarRangeA(const MpxCrossBlockArgs& args,
                               std::size_t d_begin, std::size_t d_end) {
  MpxCrossScalarRange<true>(args, d_begin, d_end);
}

void MpxCrossBlockScalarRangeB(const MpxCrossBlockArgs& args,
                               std::size_t d_begin, std::size_t d_end) {
  MpxCrossScalarRange<false>(args, d_begin, d_end);
}

void PanSeedSlideBase(const PanBlockArgs& a) {
  const double* x = a.x;
  const std::size_t m = a.layers[0].m;
  const std::size_t d = a.d;
  double qt = 0.0;
  for (std::size_t k = 0; k < m; ++k) {
    qt += x[a.r0 + k] * x[a.r0 + d + k];
  }
  a.qt_buf[0] = qt;
  for (std::size_t o = a.r0 + 1; o < a.r1; ++o) {
    qt += x[o - 1 + m] * x[o - 1 + d + m] - x[o - 1] * x[o - 1 + d];
    a.qt_buf[o - a.r0] = qt;
  }
}

void PanUpdateTrackRange(const PanLayerArgs& layer, const double* corr_buf,
                         std::size_t r0, std::size_t end, std::size_t d) {
  double* lc = layer.local_corr;
  std::size_t* li = layer.local_index;
  for (std::size_t o = r0; o < end; ++o) {
    const double c = corr_buf[o - r0];
    if (c > lc[o] || (c == lc[o] && o + d < li[o])) {
      lc[o] = c;
      li[o] = o + d;
    }
    if (c > lc[o + d] || (c == lc[o + d] && o < li[o + d])) {
      lc[o + d] = c;
      li[o + d] = o;
    }
  }
}

void PanBlockScalar(const PanBlockArgs& a) {
  PanSeedSlideBase(a);
  const double* x = a.x;
  const std::size_t d = a.d;
  const std::size_t r0 = a.r0;
  std::size_t prev_m = a.layers[0].m;
  for (std::size_t l = 0; l < a.num_layers; ++l) {
    const PanLayerArgs& layer = a.layers[l];
    // Counts shrink and exclusions grow with the length, so the first
    // inadmissible layer ends the chunk.
    if (layer.exclusion >= d || layer.count <= d + r0) break;
    const std::size_t cap = layer.count - d;
    const std::size_t end = a.r1 < cap ? a.r1 : cap;
    // Advance the dots through the length recurrence qt_{m+1} = qt_m +
    // x[o+m] * x[o+d+m], only over offsets still valid at this length.
    for (std::size_t k = prev_m; k < layer.m; ++k) {
      for (std::size_t o = r0; o < end; ++o) {
        a.qt_buf[o - r0] += x[o + k] * x[o + d + k];
      }
    }
    prev_m = layer.m;
    const double dm = static_cast<double>(layer.m);
    const double* mu = layer.means;
    const double* inv = layer.inv;
    for (std::size_t o = r0; o < end; ++o) {
      a.corr_buf[o - r0] =
          (a.qt_buf[o - r0] - dm * mu[o] * mu[o + d]) * inv[o] * inv[o + d];
    }
    if (layer.local_index != nullptr) {
      PanUpdateTrackRange(layer, a.corr_buf, r0, end, d);
    } else {
      // Bound mode: plain per-entry maxima, no index race. Fused row +
      // column updates per offset — max merges of one candidate set,
      // so the final profile is interleaving-independent; the vector
      // variants use the same per-offset order.
      double* lc = layer.local_corr;
      for (std::size_t o = r0; o < end; ++o) {
        const double c = a.corr_buf[o - r0];
        if (c > lc[o]) lc[o] = c;
        if (c > lc[o + d]) lc[o + d] = c;
      }
    }
  }
}

void PanCovRowScalarRange(const PanCovRowArgs& a, std::size_t j_begin,
                          std::size_t j_end) {
  for (std::size_t j = j_begin; j < j_end; ++j) {
    a.out[j] = MpxSeedCov(a.series, a.means, a.pos, j, a.m);
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
      c = MpxSeedCov(a.x, a.means, il, a.jl, a.m);
    } else {
      c = a.diag_cov[k] + a.ddf[il] * a.ddg[a.jl] + a.ddf[a.jl] * a.ddg[il];
    }
    a.diag_cov[k] = c;
    const double corr = c * a.inv[il] * a.inv_j;
    if (corr > a.right_corr[il]) {
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
