// Profile equivalence harness: the naive O(n^2 m) matrix-profile
// oracle and the executable statement of the MPX numerics contract.
//
// The oracle z-normalizes every subsequence with its ComputeWindowStats
// moments and takes plain Euclidean distances, one O(m) loop per pair.
// It classifies flatness exactly like the engines
// (profile_internal::IsFlat on the same moments) and applies the SCAMP
// rules: flat-vs-flat pairs are at distance 0 (the lowest eligible flat
// neighbor wins), flat-vs-dynamic pairs at sqrt(2m).
//
// MPX accumulates each pair's centered covariance along a diagonal
// (O(m) seed + O(1) rank-2 updates), so it CANNOT be bit-identical to
// the oracle — but it must be interchangeable with it for every
// consumer in this codebase. The contract, checked by
// ExpectProfileEquivalence and its join/left/streaming forms:
//
//  1. Dynamic entries agree in SQUARED-distance space within
//     2m * kMpxCorrTolerance. Squared distance is the honest metric:
//     d^2 = 2m(1 - corr) is linear in the correlation the kernel
//     accumulates, whereas d itself amplifies a fixed corr error
//     without bound as d -> 0 (d = sqrt(2m)*sqrt(1-corr), so
//     |dd/dcorr| ~ 1/d), and a distance-space tolerance would have to
//     be either too loose at the top or flaky at the bottom.
//  2. Flat entries (the SCAMP special cases) agree EXACTLY: distance
//     0.0 with the identical neighbor, or exactly sqrt(2m). Both sides
//     classify flatness from the same ComputeWindowStats moments, so
//     there is no rounding to forgive.
//  3. TopDiscords(k) returns the SAME positions in the SAME order.
//     Discords are what the detectors consume — a kernel that moves a
//     discord is wrong no matter how small the numeric delta — and
//     discord distances sit at the top of the profile where squared-
//     distance agreement is tightest, so exact index agreement is an
//     enforceable (and enforced) requirement, not an aspiration.
//
// Neighbor indices of DYNAMIC entries are deliberately NOT compared:
// a near-tie between two neighbors can resolve differently under the
// two accumulation orders, which is invisible to every consumer
// (detectors read distances and discord positions).
//
// The oracle is the slow side, so callers compute it once per input
// and hand it to every thread-count and ISA-tier check.

#ifndef TSAD_TESTS_SUBSTRATES_PROFILE_EQUIVALENCE_H_
#define TSAD_TESTS_SUBSTRATES_PROFILE_EQUIVALENCE_H_

#include <cstddef>
#include <limits>
#include <vector>

#include "gtest/gtest.h"

#include "common/status.h"
#include "substrates/matrix_profile.h"

namespace tsad {
namespace testing {

/// Maximum tolerated correlation disagreement between MPX and the
/// oracle. Observed worst cases: ~4e-9 on 16k-subsequence random walks,
/// ~2e-6 on the adversarial level-shift series (a 1e6-level flat run
/// inside an O(1) walk — a diagonal crossing the shift briefly holds a
/// ~1e12 covariance whose absolute rounding error lingers for the
/// remainder of its row block despite per-block re-seeding). 1e-5
/// covers the adversarial case with ~5x headroom while staying far
/// below anything that could reorder a discord. The squared-distance
/// bound quoted in failure messages is 2m * this.
inline constexpr double kMpxCorrTolerance = 1e-5;

/// Naive O(n^2 m) self-join oracle: same arguments, validation and
/// exclusion semantics as ComputeMatrixProfile.
Result<MatrixProfile> ComputeMatrixProfileNaive(
    const std::vector<double>& series, std::size_t m,
    std::size_t exclusion = std::numeric_limits<std::size_t>::max());

/// Naive left-profile oracle: same contract as ComputeLeftMatrixProfile
/// at its default exclusion (neighbors j <= i - exclusion - 1; entries
/// without one stay +inf / kNoNeighbor).
Result<MatrixProfile> ComputeLeftMatrixProfileNaive(
    const std::vector<double>& series, std::size_t m);

/// Naive AB-join oracle: same contract as ComputeAbJoin.
Result<MatrixProfile> ComputeAbJoinNaive(
    const std::vector<double>& query_series,
    const std::vector<double>& reference_series, std::size_t m);

/// Runs DistanceProfile(series, pos, m) and checks it entry by entry
/// against the naive distance of the z-normalized subsequences: entries
/// where either side is flat EXACTLY (0 between two flats, sqrt(2m)
/// otherwise), dynamic entries within the 2m * kMpxCorrTolerance
/// squared-distance bound.
::testing::AssertionResult ExpectDistanceProfileEquivalence(
    const std::vector<double>& series, std::size_t pos, std::size_t m);

/// One representative series per simulator family (yahoo A1/A4, taxi,
/// nasa, omni, physio ECG, gait), truncated so O(n^2) oracles stay
/// test-sized, with the window length the detectors actually use on
/// that family. Shared by the kernel-equivalence and SIMD-dispatch
/// suites so "certified across the simulator families" means the same
/// set everywhere.
struct ProfileTestFamily {
  const char* name;
  std::vector<double> values;
  std::size_t m;
};
std::vector<ProfileTestFamily> SimulatorFamilies();

/// Runs ComputeMatrixProfile(series, m) at the CURRENT thread count and
/// ISA tier and checks the three-clause contract above against
/// `oracle` (ComputeMatrixProfileNaive(series, m)). Clause 3 compares
/// the top 3 discords.
::testing::AssertionResult ExpectProfileEquivalence(
    const std::vector<double>& series, std::size_t m,
    const MatrixProfile& oracle);

/// Runs ComputeAbJoin(query, reference, m) and checks the contract
/// against `oracle` (ComputeAbJoinNaive of the same pair). Flat entries
/// are classified on the QUERY side — the side the profile indexes.
::testing::AssertionResult ExpectAbJoinEquivalence(
    const std::vector<double>& query_series,
    const std::vector<double>& reference_series, std::size_t m,
    const MatrixProfile& oracle);

/// Runs ComputeLeftMatrixProfile(series, m) at the default exclusion and
/// checks the contract against `oracle`
/// (ComputeLeftMatrixProfileNaive(series, m)), plus a fourth clause:
/// entries with NO eligible past neighbor must be +inf/kNoNeighbor on
/// both sides exactly.
::testing::AssertionResult ExpectLeftProfileEquivalence(
    const std::vector<double>& series, std::size_t m,
    const MatrixProfile& oracle);

/// Certifies the streaming kernel (StreamingMpx) fed the series point
/// by point with ring capacity `buffer_cap`:
///
///  * No eviction (series fits the buffer, or buffer_cap = 0): Merged()
///    must agree with the batch ComputeMatrixProfile and Left() with
///    the batch ComputeLeftMatrixProfile over the whole series —
///    dynamic entries within the 2m * kMpxCorrTolerance squared-distance
///    bound, flat entries (0 / sqrt(2m), same neighbor when 0) EXACTLY,
///    since the streaming prefix-total ring replays
///    ComputeWindowStats's accumulation order bit for bit.
///  * After eviction: the eviction-invariant side is the RIGHT profile
///    (arcs point forward; pruning drops the past), so Right() over
///    the retained suffix must agree with a naive right self-join built
///    from the kernel's own rolling moments — dynamic entries within
///    tolerance, flat entries exactly (distance AND neighbor for
///    flat-flat pairs).
::testing::AssertionResult ExpectStreamingMpxEquivalence(
    const std::vector<double>& series, std::size_t m,
    std::size_t buffer_cap);

}  // namespace testing
}  // namespace tsad

#endif  // TSAD_TESTS_SUBSTRATES_PROFILE_EQUIVALENCE_H_
