// Kernel-variant registry for the matrix-profile engines.
//
// Three hot inner loops are compiled once per ISA tier
// (scalar/SSE2/AVX2/AVX-512) in dedicated translation units carrying
// per-TU -msse2/-mavx2/-mavx512f flags, and selected at runtime through
// this registry via common/cpu_features.h: the MPX join block (one
// kernel for the self-join, the AB-join and the left profile, which
// differ only in the side whose profile a pair updates), the streaming
// MPX lag advance and the exact covariance row that MERLIN's
// refinement and the twin audit's distance profiles read. The default
// build stays portable: baseline TUs never emit wide-SIMD
// instructions, and a variant only runs after CPUID confirms the host
// supports its tier.
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
//    every O(m) covariance seed runs the ONE MpxSeedCov chain below,
//    compiled once in the baseline TU and lane for lane in the vector
//    group seeds;
//  * profile updates are order-independent lexicographic maxima
//    (higher correlation wins, ties to the lower neighbor index), so
//    visiting candidates in vector-group order instead of scalar order
//    cannot change the winner.

#ifndef TSAD_SUBSTRATES_MP_KERNELS_H_
#define TSAD_SUBSTRATES_MP_KERNELS_H_

#include <cstddef>

#include "common/cpu_features.h"

namespace tsad {

/// Which profile an MPX join block updates: side A's (entry o,
/// neighbor o + d), side B's (entry o + d, neighbor o) or both. The
/// self-join is the both-sides case of a series joined with itself;
/// the AB-join runs an A and a B sweep over its rectangle's two
/// diagonal half-spaces; the (causal) left profile runs one B sweep.
enum class MpxUpdate { kA, kB, kBoth };

/// One (row block, diagonal range) cell of an MPX join: diagonal d
/// pairs offset o of side A with offset o + d of side B, valid while
/// o < min(count_a, count_b - d), which is non-increasing in d, so a
/// walk over ascending diagonals stops at the first one too short for
/// the block. For every diagonal d in [d_begin, d_end), seed the
/// covariance of pair (r0, r0 + d) with MpxSeedCov, then advance it
/// through offsets o in (r0, min(r1, count_a, count_b - d)) by the
/// rank-2 recurrence
///   c += ddf_a[o] * ddg_b[o + d] + ddf_b[o + d] * ddg_a[o],
/// updating the `update` side(s) with the lexicographic-max rule.
/// local_corr and local_index are indexed by the updated side's
/// offsets (one index space when both sides are one series). The
/// caller owns the tile loop, row-block loop and the cross-tile merge.
struct MpxBlockArgs {
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
  MpxUpdate update = MpxUpdate::kBoth;
  double* local_corr = nullptr;
  std::size_t* local_index = nullptr;
};
using MpxBlockFn = void (*)(const MpxBlockArgs&);

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

/// One exact covariance row: locally-centered covariances of the
/// query subsequence at `pos` against EVERY subsequence — out[j] is
/// MpxSeedCov of the pair (pos, j) with the series on both sides, in
/// O(n*m). MerlinSweep's refinement rows (detectors/merlin.h) and
/// DistanceProfile (the twin audit's profiles) both read it. Fully
/// accurate (no uncentered cancellation) and vectorized across
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

/// Locally-centered O(m) covariance of side-A subsequence `a` against
/// side-B subsequence `b`: sum_k (series_a[a+k]-means_a[a]) *
/// (series_b[b+k]-means_b[b]), accumulated left to right. The ONE seed
/// every MPX path (batch joins, streaming re-seed, MERLIN rows) uses;
/// a self-pair passes the same series as both sides.
double MpxSeedCov(const double* series_a, const double* means_a,
                  const double* series_b, const double* means_b,
                  std::size_t a, std::size_t b, std::size_t m);

/// Scalar MPX join block over diagonals [d_begin, d_end) of args' row
/// block, on args.update's side(s).
void MpxBlockScalarRange(const MpxBlockArgs& args, std::size_t d_begin,
                         std::size_t d_end);

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

/// The join update of pair (o, o + d) = (o, od) with correlation
/// `candidate` on the compile-time side(s): entry o of side A takes
/// neighbor od, entry od of side B takes neighbor o.
template <bool kUpdateA, bool kUpdateB>
inline void MpxUpdatePair(const MpxBlockArgs& args, double candidate,
                          std::size_t o, std::size_t od) {
  if (kUpdateA) {
    MpxUpdateBest(args.local_corr, args.local_index, candidate, o, od);
  }
  if (kUpdateB) {
    MpxUpdateBest(args.local_corr, args.local_index, candidate, od, o);
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
