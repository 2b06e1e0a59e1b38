// Pan-matrix-profile substrate: ALL window lengths in one engine.
//
// MERLIN-style detectors (Nakamura et al.; the paper's answer to "what
// window length?") need the top discord at EVERY length of a range
// [min_length, max_length]. Computing a full self-join per length
// repeats almost all of the work: the expensive object per pair (i, j)
// is the sliding dot product qt_m(i, j) = sum_k x[i+k] * x[j+k], and it
// obeys a one-term recurrence in the LENGTH dimension,
//
//   qt_{m+1}(i, j) = qt_m(i, j) + x[i+m] * x[j+m],
//
// so one diagonal traversal can serve every length at once. This engine
// walks each diagonal d once per cache block:
//
//  * muinvn stats per length, shared with the per-length kernels via
//    ComputeWindowStats — the SAME flat classification and inverse
//    centered norms 1/(sigma * sqrt(m)), so flat semantics (SCAMP
//    0 / sqrt(2m) cases) agree with ComputeMatrixProfile exactly.
//  * per (diagonal, offset block): one O(min_length) seed of the
//    uncentered dot at the block's first offset, an O(1) slide across
//    offsets, then per extra length an O(step) advance — the length
//    recurrence above — with the centered correlation recovered per
//    (pair, length) as (qt - m * mu_i * mu_j) * inv_i * inv_j.
//  * cache blocking: lengths are processed in small chunks so the
//    per-length mean/inv/profile slices a block touches stay resident
//    while the chunk's diagonals stream through them; each chunk
//    re-seeds its own dot (O(m) per block, amortized over the block's
//    offsets), which also contains rounding drift the way the MPX row
//    block does.
//  * determinism: fixed tile partition over diagonals, per-worker local
//    profiles, lexicographic merge (higher correlation wins, ties to
//    the lower neighbor index) — identical output at any thread count.
//
// Conditioning note: recovering the correlation from the UNCENTERED
// dot cancels m * mu_i * mu_j, so (unlike the centered MPX
// recurrence) the engine loses accuracy on
// adversarial inputs whose level dwarfs their local structure (a 1e6
// offset with O(1) variation costs ~1e-4 of correlation). The certified
// inputs are the simulator families and O(1)-scale walks; the discord
// path is immune by construction — sampled bounds only steer pruning
// (with a margin budgeted for exactly this error), and every reported
// discord is re-measured exactly with locally-centered covariance rows
// (mp_kernels.h pan_cov_row), which cancel the level before the dot.

#ifndef TSAD_SUBSTRATES_PAN_PROFILE_H_
#define TSAD_SUBSTRATES_PAN_PROFILE_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "substrates/matrix_profile.h"

namespace tsad {

/// Length grid of a pan profile: min_length, min_length + step, ...,
/// up to and including max_length when the grid lands on it.
struct PanProfileConfig {
  std::size_t min_length = 0;
  std::size_t max_length = 0;
  std::size_t step = 1;
};

/// The pan matrix profile: one self-join profile per grid length, each
/// with the same per-length semantics as ComputeMatrixProfile(series,
/// m) — default m/2 exclusion zone, SCAMP flat conventions.
struct PanProfile {
  std::vector<std::size_t> lengths;
  std::vector<std::vector<double>> distances;     // [length][entry]
  std::vector<std::vector<std::size_t>> indices;  // [length][entry]

  std::size_t num_lengths() const { return lengths.size(); }

  /// The layer for `lengths[i]` as a MatrixProfile (copies), so pan
  /// layers feed TopDiscords and the equivalence harness directly.
  MatrixProfile Layer(std::size_t i) const;
};

/// Computes the full pan profile over the config's length grid in one
/// shared-dot sweep. Validates like the per-length self-join at
/// max_length (every smaller length is then valid too): m >= 2, at
/// least 2 subsequences, default exclusion leaves candidates. Rejects
/// step == 0 and min_length > max_length.
Result<PanProfile> ComputePanProfile(const std::vector<double>& series,
                                     const PanProfileConfig& config);

/// Top-1 discord per length, as MERLIN consumes it.
struct PanLengthDiscord {
  std::size_t length = 0;
  std::size_t position = 0;
  double distance = 0.0;    // exact z-normalized NN distance
  double normalized = 0.0;  // distance / sqrt(length)
};

/// The pruned pan discord sweep behind MerlinSweep: EXACTLY the top
/// discord of every length in [min_length, max_length] (ties to the
/// lowest position, m/2 trivial-match exclusion — the contract of
/// TopDiscords(ComputeMatrixProfile(series, m), 1) per length, with
/// rounding-level ties resolved by kPanTieCorrEps below), at a
/// fraction of the per-length cost:
///
///  1. one strided-diagonal pan sweep (every kPanDiscordStride-th
///     diagonal) gives each entry an UPPER bound on its true NN
///     distance at every length — the minimum over a SUBSET of
///     candidates can only overestimate;
///  2. per length, entries are refined in upper-bound order (ties to
///     the lower index) with exact centered-covariance rows (dispatched
///     via pan_cov_row), keeping a best-so-far
///     (distances within kPanTieCorrEps tie — mutual nearest neighbors
///     share one pair distance, which ties EXACTLY in real arithmetic
///     but picks up directional rounding — and the lower position
///     wins);
///     once an entry's bound falls below best-so-far minus a small
///     margin (the bound's conditioning budget — see the header note),
///     no later entry can win or tie, and the scan stops. The previous
///     length's discord position is refined FIRST: discords drift
///     slowly across adjacent lengths, so the best-so-far starts high
///     and the scan typically touches a handful of rows.
///
/// Returns Internal("no discord found at length <m>") if a length has
/// no refinable entry — the same failure surface MerlinSweep always
/// had.
Result<std::vector<PanLengthDiscord>> PanLengthDiscords(
    const std::vector<double>& series, std::size_t min_length,
    std::size_t max_length);

/// Correlation-units epsilon under which two discord candidates count
/// as exactly tied (squared distances within 2*m*eps), resolving to the
/// LOWER position. Mutual nearest neighbors share ONE pair distance —
/// an exact tie in real arithmetic — but every backend rounds the two
/// directions slightly differently (the kernel recurrence by the path
/// it took along each diagonal, the refinement row by its own dot
/// order), so a strict argmax
/// would make the reported position an artifact of which backend
/// computed the profile. Both the pan discord sweep and
/// MerlinSweepPerLength resolve such ties with this epsilon: far above
/// ~1e-13 directional rounding, far below any genuine gap between
/// distinct discords.
inline constexpr double kPanTieCorrEps = 1e-8;

/// Diagonal sampling stride of the discord sweep's bound phase. Larger
/// strides cut the bound phase's work proportionally but loosen the
/// bounds (more exact rows in phase 2); 8 keeps the bound phase ~8x
/// cheaper than a full sweep while bounds stay tight enough that
/// refinement touches only a few rows per length on the certified
/// families.
inline constexpr std::size_t kPanDiscordStride = 8;

}  // namespace tsad

#endif  // TSAD_SUBSTRATES_PAN_PROFILE_H_
