// Internal conventions shared by the matrix-profile engines (the batch
// MPX joins in matrix_profile.cc, MERLIN's refinement search and the
// streaming kernel) and the naive test oracle. They MUST agree on
// these definitions — the flat-subsequence classification decides
// which entries take the SCAMP special-case distances (0 / sqrt(2m)),
// and the argument validation decides which inputs are rejected — so
// they live here instead of being duplicated per engine. Not part of
// the public API.

#ifndef TSAD_SUBSTRATES_PROFILE_INTERNAL_H_
#define TSAD_SUBSTRATES_PROFILE_INTERNAL_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "substrates/matrix_profile.h"
#include "substrates/sliding_window.h"

namespace tsad {
namespace profile_internal {

// Subsequences whose std is this small RELATIVE to their mean magnitude
// are treated as "flat". The threshold must be relative: rolling-sum
// cancellation noise scales with the square of the values, so an
// absolute epsilon misclassifies exactly-constant runs at large levels.
constexpr double kFlatSigmaRel = 1e-7;

inline bool IsFlat(double mean, double std) {
  return std < kFlatSigmaRel * (1.0 + std::fabs(mean));
}

// A Pearson correlation as a z-normalized distance, sqrt(2m(1 - corr))
// with two_m = 2m: the correlation is clamped to [-1, 1] and a negative
// rounding residue of the product to 0. A NaN correlation passes the
// clamp and reads 0.
inline double CorrToDistance(double corr, double two_m) {
  const double v = two_m * (1.0 - std::clamp(corr, -1.0, 1.0));
  return std::sqrt(v > 0.0 ? v : 0.0);
}

// The SCAMP flat-flat tie-break: the lowest index in `flat` (ascending
// flat subsequence indices) outside i's exclusion zone, or kNoNeighbor.
inline std::size_t LowestFlatOutsideExclusion(
    const std::vector<std::size_t>& flat, std::size_t i,
    std::size_t exclusion) {
  if (flat.empty()) return kNoNeighbor;
  if (i > exclusion && flat.front() < i - exclusion) return flat.front();
  const auto it = std::upper_bound(flat.begin(), flat.end(), i + exclusion);
  return it == flat.end() ? kNoNeighbor : *it;
}

// Shared self-join argument validation: resolves the SIZE_MAX
// exclusion sentinel to DefaultSelfJoinExclusion(m) and rejects the
// same degenerate shapes with the same messages in every kernel.
// On OK, *exclusion and *count hold the resolved values.
inline Status ValidateSelfJoin(std::size_t n, std::size_t m,
                               std::size_t* exclusion, std::size_t* count) {
  if (m < 2) return Status::InvalidArgument("subsequence length must be >= 2");
  TSAD_RETURN_IF_ERROR(CheckTwoSubsequences(n, m));
  *count = NumSubsequences(n, m);
  if (*exclusion == std::numeric_limits<std::size_t>::max()) {
    *exclusion = DefaultSelfJoinExclusion(m);
  }
  if (*exclusion >= *count - 1) {
    return Status::InvalidArgument(
        "exclusion zone " + std::to_string(*exclusion) +
        " leaves no candidate neighbors for " + std::to_string(*count) +
        " subsequences");
  }
  return Status::OK();
}

// Shared AB-join argument validation (no exclusion zone exists for a
// join of two distinct series). On OK, *nq and *nr hold the
// subsequence counts of the query and reference sides.
inline Status ValidateAbJoin(std::size_t query_n, std::size_t reference_n,
                             std::size_t m, std::size_t* nq, std::size_t* nr) {
  if (m < 2) return Status::InvalidArgument("subsequence length must be >= 2");
  *nq = NumSubsequences(query_n, m);
  *nr = NumSubsequences(reference_n, m);
  if (*nq == 0 || *nr == 0) {
    return Status::InvalidArgument(
        "AB-join needs at least one length-" + std::to_string(m) +
        " subsequence on each side");
  }
  return Status::OK();
}

// Shared left-profile argument validation. Unlike the self-join, an
// exclusion zone covering the whole series is NOT rejected: the left
// profile's contract is that entries without an eligible past neighbor
// simply stay +inf / kNoNeighbor.
inline Status ValidateLeftProfile(std::size_t n, std::size_t m,
                                  std::size_t* exclusion, std::size_t* count) {
  if (m < 2) return Status::InvalidArgument("subsequence length must be >= 2");
  TSAD_RETURN_IF_ERROR(CheckTwoSubsequences(n, m));
  *count = NumSubsequences(n, m);
  if (*exclusion == std::numeric_limits<std::size_t>::max()) {
    *exclusion = DefaultSelfJoinExclusion(m);
  }
  return Status::OK();
}

}  // namespace profile_internal
}  // namespace tsad

#endif  // TSAD_SUBSTRATES_PROFILE_INTERNAL_H_
