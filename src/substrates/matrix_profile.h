// Matrix profile substrate: the MPX diagonal-traversal joins
// (self-join, AB-join, left profile), the machinery behind the time
// series discord detector the paper uses in Figs 8 and 13 (Yeh et al.
// ICDM'16, Yankov/Keogh ICDM'07, Zimmerman et al. SoCC'19), and the
// distance profile of one subsequence against its series, which the
// twin audit reads.
//
// All distances are z-normalized Euclidean distances between length-m
// subsequences. Near-constant subsequences are handled with the SCAMP
// convention: two flat subsequences are at distance 0; a flat vs. a
// non-flat subsequence is at sqrt(2m), the distance at zero
// correlation (the maximum attainable distance is 2*sqrt(m), at
// correlation -1).
//
// MPX walks the distance matrix diagonal by diagonal and never touches
// an FFT:
//
//  * muinvn precompute: rolling means (ComputeWindowStats, so every
//    engine classifies the same subsequences as flat) and
//    per-subsequence INVERSE centered norms 1 / (sigma * sqrt(m)),
//    turning the per-pair normalization into two multiplies.
//  * ddf/ddg difference tracks: ddf[i] = 0.5*(x[i+m-1] - x[i-1]),
//    ddg[i] = (x[i+m-1] - mu[i]) + (x[i-1] - mu[i-1]). Along a
//    diagonal the centered covariance obeys
//      c(i, j) = c(i-1, j-1) + ddf[i]*ddg[j] + ddf[j]*ddg[i],
//    so each pair costs two multiply-adds, and the Pearson correlation
//    is c * inv[i] * inv[j]. Distances are recovered once per ENTRY at
//    the end: d = sqrt(2m * (1 - corr)).
//  * Cache-blocked tiling: diagonals are processed in fixed tiles, and
//    within a tile the offset range is walked in fixed row blocks. Each
//    diagonal re-seeds its covariance at every block boundary with a
//    locally-centered O(m) dot, so recurrence drift is contained to one
//    block.
//  * Parallelism: tiles are independent ParallelFor work items
//    accumulating into worker-local profiles that merge with the
//    order-independent operator "higher correlation wins, ties to the
//    LOWER neighbor index". Every diagonal lives in exactly one tile
//    and tile/block boundaries are constants, so profiles are
//    bit-identical at any --threads setting and, through the
//    runtime-dispatched variants of substrates/mp_kernels.h, at every
//    ISA tier.
//
// All three joins run one driver and one dispatched block over two
// sides: diagonal d pairs offset o of side A with offset o + d of side
// B, and each sweep names the side(s) whose profile a pair updates.
// The self-join is one both-sides sweep over d > exclusion of a series
// joined with itself; the left profile is the same sweep updating only
// the later side; the AB-join covers its nq x nr rectangle as two
// one-sided sweeps (reference index >= query index, then the
// transposed strict half).
//
// Feed sanitized inputs: NaNs propagate through the covariance chain
// and poison whole diagonals. The certification against the naive
// O(n^2 m) oracle (tests/substrates/profile_equivalence.h) pins the
// numerics contract: squared distances within a documented absolute
// tolerance, flat entries exactly, TopDiscords positions exactly.

#ifndef TSAD_SUBSTRATES_MATRIX_PROFILE_H_
#define TSAD_SUBSTRATES_MATRIX_PROFILE_H_

#include <cstddef>
#include <limits>
#include <vector>

#include "common/status.h"
#include "substrates/sliding_window.h"

namespace tsad {

/// The matrix profile of a series for subsequence length m: for every
/// subsequence, the z-normalized distance to (and the index of) its
/// nearest non-trivial-match neighbor.
struct MatrixProfile {
  std::vector<double> distances;       // length n - m + 1
  std::vector<std::size_t> indices;    // nearest-neighbor index per entry
  std::size_t subsequence_length = 0;  // m

  std::size_t size() const { return distances.size(); }
};

/// Sentinel for "no valid neighbor" (exclusion covered everything).
inline constexpr std::size_t kNoNeighbor =
    std::numeric_limits<std::size_t>::max();

// ---------------------------------------------------------------------------
// Exclusion-zone conventions — THE single home of the two defaults.
//
// Two different zones exist in this module and they are intentionally
// different sizes:
//  * Profile computation suppresses trivial matches with a zone of
//    m/2 around each subsequence (neighbor j counts only when
//    |i - j| > m/2).
//  * Discord extraction (TopDiscords) suppresses overlapping discords
//    with a zone of m, so reported discords never share a single point.
//
// Rounding: both use C++ integer division, i.e. floor. For even m the
// self-join zone is exactly m/2 (m=64 -> 32: j = i+32 is ineligible,
// j = i+33 is the first candidate); for odd m it floors (m=65 -> 32).
// Every engine (batch MPX, MERLIN's search, the streaming engine, the
// test oracle) and TopDiscords must derive its default from these two
// functions — never from a literal —
// so the semantics can only ever change in one place.
// ---------------------------------------------------------------------------

/// Default trivial-match exclusion zone of the profile kernels: m/2
/// (floor division; see the convention block above).
inline std::size_t DefaultSelfJoinExclusion(std::size_t m) { return m / 2; }

/// Default overlap-suppression zone of TopDiscords: m.
inline std::size_t DefaultDiscordExclusion(std::size_t m) { return m; }

/// The distance profile of subsequence `pos`: entry j is the
/// z-normalized distance from series[pos, pos + m) to series[j, j + m),
/// for every one of the n - m + 1 subsequences (entry pos, the self
/// match, is 0 up to rounding). No exclusion zone applies. Each entry
/// comes from a locally-centered covariance (MpxSeedCov, through the
/// dispatched pan_cov_row row MERLIN refines with) scaled by the MPX
/// window stats, so only those stats' prefix-sum rounding grows with
/// the series' level. The SCAMP flat cases give 0 between two flats and
/// sqrt(2m) between a flat and a dynamic subsequence. O(n m), and
/// bit-identical at every ISA tier. Returns InvalidArgument if m < 2 or
/// pos + m > n.
Result<std::vector<double>> DistanceProfile(const std::vector<double>& series,
                                            std::size_t pos, std::size_t m);

/// Self-join in O(n^2) time and O(n) memory. The exclusion zone
/// suppresses trivial matches: neighbor j of subsequence i is only
/// considered when |i - j| > exclusion. The conventional zone
/// DefaultSelfJoinExclusion(m) = m/2 is used when `exclusion` is
/// SIZE_MAX.
///
/// Returns InvalidArgument if m < 2 or there are fewer than 2
/// subsequences or the exclusion zone leaves some subsequence with no
/// candidate neighbor at all.
Result<MatrixProfile> ComputeMatrixProfile(
    const std::vector<double>& series, std::size_t m,
    std::size_t exclusion = std::numeric_limits<std::size_t>::max());

/// LEFT matrix profile: for every subsequence, the distance to its
/// nearest neighbor strictly in the PAST (j <= i - exclusion - 1).
/// This is the causal/streaming variant (STAMPI-style): a subsequence
/// unlike anything seen before scores high the moment it completes,
/// which is the setting the Numenta benchmark targets. Entries with no
/// eligible left neighbor (the first `exclusion + 1` subsequences) get
/// +inf distance and kNoNeighbor; an exclusion zone covering the whole
/// series is therefore not an error.
Result<MatrixProfile> ComputeLeftMatrixProfile(
    const std::vector<double>& series, std::size_t m,
    std::size_t exclusion = std::numeric_limits<std::size_t>::max());

/// AB-join: for every length-m subsequence of `query_series`, the
/// z-normalized distance to (and index of) its nearest neighbor among
/// the subsequences of `reference_series`, in O(|query| * |reference|).
/// No exclusion zone applies — the two series are distinct by
/// contract. This is the substrate for semi-supervised detection ("how
/// far is each test subsequence from everything seen in training?").
Result<MatrixProfile> ComputeAbJoin(const std::vector<double>& query_series,
                                    const std::vector<double>& reference_series,
                                    std::size_t m);

/// A discord: the subsequence whose nearest-neighbor distance is
/// largest (i.e., the argmax of the matrix profile).
struct Discord {
  std::size_t position = 0;          // start index of the subsequence
  double distance = 0.0;             // its nearest-neighbor distance
  std::size_t nearest_neighbor = 0;  // index of that neighbor
};

/// Extracts the top-k discords from a matrix profile, suppressing
/// overlaps: after taking a discord at p, positions within `exclusion`
/// of p are ineligible (default: DefaultDiscordExclusion(m) = m — see
/// the exclusion-zone convention block above).
std::vector<Discord> TopDiscords(const MatrixProfile& profile, std::size_t k,
                                 std::size_t exclusion =
                                     std::numeric_limits<std::size_t>::max());

}  // namespace tsad

#endif  // TSAD_SUBSTRATES_MATRIX_PROFILE_H_
