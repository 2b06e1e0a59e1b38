#include "merlin_oracle.h"

#include <cmath>
#include <string>

#include "substrates/matrix_profile.h"

namespace tsad {
namespace testing {

Result<std::vector<LengthDiscord>> MerlinSweepPerLength(
    const Series& series, std::size_t min_length, std::size_t max_length) {
  TSAD_RETURN_IF_ERROR(ValidateMerlinLengths(min_length, max_length));
  if (NumSubsequences(series.size(), max_length) / 2 < max_length) {
    return Status::InvalidArgument(
        "series too short for MERLIN at max_length " +
        std::to_string(max_length));
  }
  std::vector<LengthDiscord> out;
  out.reserve(max_length - min_length + 1);
  for (std::size_t m = min_length; m <= max_length; ++m) {
    TSAD_ASSIGN_OR_RETURN(const MatrixProfile mp,
                          ComputeMatrixProfile(series, m));
    const std::vector<Discord> top = TopDiscords(mp, 1);
    if (top.empty()) {
      return Status::Internal("no discord found at length " +
                              std::to_string(m));
    }
    LengthDiscord ld;
    ld.length = m;
    ld.position = top.front().position;
    ld.distance = top.front().distance;
    // Resolve mutual-NN rounding-level ties the way MerlinSweep does:
    // the kernel computes the shared pair distance once per DIRECTION,
    // and the two directions can round apart by ~1e-14, making a strict
    // argmax pick whichever position the noise favored. The first
    // (lowest) position within kPanTieCorrEps of the maximum wins — see
    // merlin.h.
    if (std::isfinite(ld.distance)) {
      const double tie_sq =
          2.0 * static_cast<double>(m) * kPanTieCorrEps;
      const double best_sq = ld.distance * ld.distance;
      for (std::size_t i = 0; i < ld.position; ++i) {
        const double d = mp.distances[i];
        if (std::isfinite(d) && d * d >= best_sq - tie_sq) {
          ld.position = i;
          ld.distance = d;
          break;
        }
      }
    }
    ld.normalized = ld.distance / std::sqrt(static_cast<double>(m));
    out.push_back(ld);
  }
  return out;
}

}  // namespace testing
}  // namespace tsad
