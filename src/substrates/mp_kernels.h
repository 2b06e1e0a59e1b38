// Kernel-variant registry for the matrix-profile engines.
//
// The hot inner loops of the batch MPX joins, MERLIN's refinement rows
// and the streaming MPX substrate are compiled once per ISA tier
// (scalar/SSE2/AVX2/AVX-512) in dedicated translation units carrying
// per-TU -msse2/-mavx2/-mavx512f flags, and selected at runtime through
// this registry via common/cpu_features.h. The default build stays
// portable: baseline TUs never emit wide-SIMD instructions, and a
// variant only runs after CPUID confirms the host supports its tier.
//
// Bit-identity contract: every variant of the same
// operation produces bit-identical results to the scalar baseline on
// non-NaN inputs, at every thread count. This holds because
//  * all packed ops used (add/sub/mul/div/sqrt/min/max, blends) are
//    IEEE correctly rounded per lane — the EXACT double of the scalar
//    chain;
//  * variant TUs compile with -ffp-contract=off, so no mul+add is
//    fused into an FMA even where the ISA has one (AVX-512F does);
//  * each diagonal's running covariance stays in one vector lane, and
//    every O(m) covariance seed is computed by the ONE shared scalar
//    helper below, compiled once in the baseline TU;
//  * profile updates are order-independent lexicographic maxima
//    (higher correlation wins, ties to the lower neighbor index), so
//    visiting candidates in vector-group order instead of scalar order
//    cannot change the winner.

#ifndef TSAD_SUBSTRATES_MP_KERNELS_H_
#define TSAD_SUBSTRATES_MP_KERNELS_H_

#include <cstddef>

#include "common/cpu_features.h"

namespace tsad {

/// One (row block, diagonal range) cell of the batch MPX traversal:
/// for every diagonal d in [d_begin, d_end), seed the covariance of
/// pair (r0, r0+d) with MpxSeedCov, then advance it through offsets
/// o in (r0, min(r1, count-d)) by the rank-2 ddf/ddg recurrence,
/// updating local_corr/local_index on both the row side (entry o,
/// neighbor o+d) and the column side (entry o+d, neighbor o) with the
/// lexicographic-max rule. Diagonals with r0 >= count-d are skipped.
/// The caller owns the tile loop, row-block loop and the cross-tile
/// merge.
struct MpxBlockArgs {
  const double* series = nullptr;
  const double* means = nullptr;
  const double* ddf = nullptr;
  const double* ddg = nullptr;
  const double* inv = nullptr;
  std::size_t m = 0;
  std::size_t count = 0;
  std::size_t r0 = 0;      // row-block start offset
  std::size_t r1 = 0;      // row-block end bound (exclusive)
  std::size_t d_begin = 0;
  std::size_t d_end = 0;
  double* local_corr = nullptr;
  std::size_t* local_index = nullptr;
};
using MpxBlockFn = void (*)(const MpxBlockArgs&);

/// One (row block, diagonal range) cell of a CROSS-join MPX traversal
/// (AB-join or left profile): diagonal d pairs offset o of side A with
/// offset o + d of side B, valid while o < count_a and o + d < count_b,
/// i.e. o < min(count_a, count_b - d) — non-increasing in d, so the
/// same break-on-short-diagonal walk as the self-join applies. The
/// covariance recurrence is the rank-2 cross form
///   c += ddf_a[o] * ddg_b[o + d] + ddf_b[o + d] * ddg_a[o],
/// seeded per block by MpxSeedCovCross. Unlike the self-join, only ONE
/// side's profile is updated: the `mpx_cross_a` variant updates entry o
/// (neighbor o + d), `mpx_cross_b` updates entry o + d (neighbor o) —
/// AB-joins run one sweep of each over the two diagonal half-spaces,
/// the (causal) left profile runs only the b side. local_corr and
/// local_index are indexed by the UPDATED side's offsets.
struct MpxCrossBlockArgs {
  const double* series_a = nullptr;
  const double* means_a = nullptr;
  const double* ddf_a = nullptr;
  const double* ddg_a = nullptr;
  const double* inv_a = nullptr;
  std::size_t count_a = 0;
  const double* series_b = nullptr;
  const double* means_b = nullptr;
  const double* ddf_b = nullptr;
  const double* ddg_b = nullptr;
  const double* inv_b = nullptr;
  std::size_t count_b = 0;
  std::size_t m = 0;
  std::size_t r0 = 0;      // offset-block start (side-A index space)
  std::size_t r1 = 0;      // offset-block end bound (exclusive)
  std::size_t d_begin = 0;
  std::size_t d_end = 0;
  double* local_corr = nullptr;
  std::size_t* local_index = nullptr;
};
using MpxCrossBlockFn = void (*)(const MpxCrossBlockArgs&);

/// A bounded log of right-profile neighbour changes: one (local index,
/// previous neighbour) pair per change, in no particular order. `size`
/// counts every change recorded, including those past kCapacity, so a
/// reader can tell a complete log from an overflowed one. Meant for the
/// caller's stack: the pair arrays are left uninitialized.
struct RightChangeLog {
  /// 128 pairs (2 KB): on the default leaderboard a FLOSS push (m = 64,
  /// buffer 4096) changes 27 neighbours on average and at most 113,
  /// where a 64-pair log overflowed on 2.3% of pushes.
  static constexpr std::size_t kCapacity = 128;
  struct Change {
    std::size_t local;
    std::size_t previous;
  };

  void Record(std::size_t local, std::size_t previous) {
    if (size < kCapacity) entries[size] = {local, previous};
    ++size;
  }
  bool overflowed() const { return size > kCapacity; }

  std::size_t size = 0;
  Change entries[kCapacity];
};

/// The streaming MPX per-push lag advance (StreamingMpx::Push's hot
/// loop): for every tracked lag k in [0, nlags), with lag =
/// exclusion+1+k, i = j-lag, il = i-base, advance diag_cov[k] by the
/// rank-2 recurrence (or re-seed with MpxSeedCov when (j+lag) % reseed
/// == 0), update the right profile of il on strict improvement, and
/// race the pair for the new subsequence's left best (ties to the
/// lower i). best/best_i are in/out. Each strict improvement is
/// recorded in `changes` as (il, the right_idx it replaced) when a log
/// is given. Opening the newly joinable lag stays with the caller.
struct MpxAdvanceLagsArgs {
  const double* x = nullptr;      // retained points, local-indexed
  const double* means = nullptr;  // per retained subsequence
  const double* ddf = nullptr;
  const double* ddg = nullptr;
  const double* inv = nullptr;
  double* diag_cov = nullptr;     // [0, nlags)
  double* right_corr = nullptr;   // local-indexed
  std::size_t* right_idx = nullptr;
  std::size_t m = 0;
  std::size_t j = 0;    // global index of the new subsequence
  std::size_t jl = 0;   // its local index
  std::size_t base = 0; // global index of local 0
  std::size_t exclusion = 0;
  std::size_t nlags = 0;
  std::size_t reseed = 0;  // kStreamingMpxReseed
  double inv_j = 0.0;
  double best = 0.0;          // in/out: left-best correlation
  std::size_t best_i = 0;     // in/out: left-best global index
  RightChangeLog* changes = nullptr;  // optional right-profile change log
};
using MpxAdvanceLagsFn = void (*)(MpxAdvanceLagsArgs&);

/// One exact refinement row of MerlinSweep (detectors/merlin.h):
/// locally-centered covariances of the query subsequence at `pos`
/// against EVERY subsequence — out[j] = MpxSeedCov(series, means, pos,
/// j, m), the O(n*m) direct form of a MASS row. Fully accurate (no
/// uncentered cancellation, no FFT rounding) and vectorized across
/// adjacent columns exactly like the kernels' group seeds.
struct PanCovRowArgs {
  const double* series = nullptr;
  const double* means = nullptr;  // per-subsequence means at length m
  std::size_t pos = 0;
  std::size_t m = 0;
  std::size_t count = 0;
  double* out = nullptr;  // >= count
};
using PanCovRowFn = void (*)(const PanCovRowArgs&);

/// One ISA tier's implementations of the dispatched operations.
struct MpKernelVariant {
  SimdTier tier = SimdTier::kScalar;
  MpxBlockFn mpx_block = nullptr;
  MpxCrossBlockFn mpx_cross_a = nullptr;  // update side A (entry o)
  MpxCrossBlockFn mpx_cross_b = nullptr;  // update side B (entry o + d)
  MpxAdvanceLagsFn mpx_advance_lags = nullptr;
  PanCovRowFn pan_cov_row = nullptr;
};

/// The variant for a specific tier. On non-x86 builds every tier maps
/// to the scalar variant (cpu_features never detects or admits a wider
/// tier there, so only forced-tier tests would even ask).
const MpKernelVariant& KernelVariantFor(SimdTier tier);

/// KernelVariantFor(ActiveSimdTier()) — what the kernels actually run.
const MpKernelVariant& ActiveKernelVariant();

// ---------------------------------------------------------------------------
// Shared building blocks. These are compiled ONCE, in the baseline-ISA
// mp_kernels.cc TU, and called from every variant: the scalar variant
// IS these helpers, and the vector variants use them for covariance
// seeds, loop tails, and partial vector groups — which is what makes
// the exact tier bit-identical across tiers.
// ---------------------------------------------------------------------------

/// Locally-centered O(m) covariance of the subsequence pair (a, b):
/// sum_k (series[a+k]-means[a]) * (series[b+k]-means[b]), accumulated
/// left to right. The ONE seed every MPX path (batch, streaming
/// re-seed) uses.
double MpxSeedCov(const double* series, const double* means, std::size_t a,
                  std::size_t b, std::size_t m);

/// Cross-series variant of MpxSeedCov: the locally-centered O(m)
/// covariance of side-A subsequence `a` against side-B subsequence `b`,
/// with the EXACT per-k operation chain of MpxSeedCov (so a cross seed
/// over a == b sides reproduces the self-join seed bit for bit).
double MpxSeedCovCross(const double* series_a, const double* means_a,
                       const double* series_b, const double* means_b,
                       std::size_t a, std::size_t b, std::size_t m);

/// Scalar MpxBlock over diagonals [d_begin, d_end) of args' row block.
void MpxBlockScalarRange(const MpxBlockArgs& args, std::size_t d_begin,
                         std::size_t d_end);

/// Scalar cross-join block over diagonals [d_begin, d_end), updating
/// side A (entry o, neighbor o + d).
void MpxCrossBlockScalarRangeA(const MpxCrossBlockArgs& args,
                               std::size_t d_begin, std::size_t d_end);

/// Scalar cross-join block updating side B (entry o + d, neighbor o).
void MpxCrossBlockScalarRangeB(const MpxCrossBlockArgs& args,
                               std::size_t d_begin, std::size_t d_end);

/// Scalar lag advance over lags [k_begin, k_end).
void MpxAdvanceLagsScalarRange(MpxAdvanceLagsArgs& args, std::size_t k_begin,
                               std::size_t k_end);

/// Scalar cov row over columns [j_begin, j_end) — a loop of MpxSeedCov.
void PanCovRowScalarRange(const PanCovRowArgs& args, std::size_t j_begin,
                          std::size_t j_end);

/// The MPX profile update: lexicographic max (higher correlation wins,
/// ties to the lower neighbor index). Header-inline — pure comparisons,
/// no FP arithmetic, so every TU compiles it identically.
inline void MpxUpdateBest(double* corr, std::size_t* index, double candidate,
                          std::size_t row, std::size_t col) {
  if (candidate > corr[row] ||
      (candidate == corr[row] && col < index[row])) {
    corr[row] = candidate;
    index[row] = col;
  }
}

namespace mp_kernels_internal {
// Variant factories, each defined in its own per-TU-flags translation
// unit. The SSE2/AVX2/AVX-512 ones exist only in x86 builds (the
// registry references them under TSAD_MP_KERNELS_X86).
MpKernelVariant ScalarVariant();
MpKernelVariant Sse2Variant();
MpKernelVariant Avx2Variant();
MpKernelVariant Avx512Variant();
}  // namespace mp_kernels_internal

}  // namespace tsad

#endif  // TSAD_SUBSTRATES_MP_KERNELS_H_
