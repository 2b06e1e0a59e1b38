// MERLIN-style parameter-free discord discovery (Nakamura et al.,
// ICDM 2020, the paper's reference [18]): finds the top discord at
// every subsequence length in a range, so the user does not have to
// guess the window size.
//
// MerlinSweep is an exact bound-and-refine search on the one MPX
// engine. Every subsequence carries a nearest-neighbour candidate from
// length to length: one ComputeMatrixProfile call seeds the candidates
// at min_length, and at each later length every subsequence
// re-measures its candidate exactly and tries the diagonal
// continuations of its neighbours' candidates. The re-measured
// distances are upper bounds on the true nearest-neighbour distances,
// so refining subsequences in bound order with exact rows finds the
// top discord after a handful of rows; a length whose refinement runs
// past a budget worth about one self-join refreshes every candidate
// from ComputeMatrixProfile instead. The per-length recompute (one
// self-join and TopDiscords per length) is the oracle the search is
// certified against; it lives with the tests.

#ifndef TSAD_DETECTORS_MERLIN_H_
#define TSAD_DETECTORS_MERLIN_H_

#include <cstddef>
#include <vector>

#include "detectors/detector.h"
#include "substrates/matrix_profile.h"

namespace tsad {

/// Discord at a specific subsequence length.
struct LengthDiscord {
  std::size_t length = 0;       // subsequence length m
  std::size_t position = 0;     // start index of the discord
  double distance = 0.0;        // z-normalized NN distance
  double normalized = 0.0;      // distance / sqrt(m), comparable across m
};

/// Correlation-units epsilon under which two discord candidates count
/// as exactly tied (squared distances within 2*m*eps), resolving to the
/// LOWER position. Mutual nearest neighbors share ONE pair distance —
/// an exact tie in real arithmetic — but every backend rounds the two
/// directions slightly differently (the kernel recurrence by the path
/// it took along each diagonal, the refinement row by its own dot
/// order), so a strict argmax would make the reported position an
/// artifact of which backend computed the profile. MerlinSweep and its
/// per-length test oracle both resolve such ties with this epsilon: far
/// above ~1e-13 directional rounding, far below any genuine gap
/// between distinct discords.
inline constexpr double kPanTieCorrEps = 1e-8;

/// The length-range half of MERLIN's validation: min_length >= 4 and
/// min_length <= max_length, else InvalidArgument("bad MERLIN length
/// range [min, max]"). The registry checks it when a merlin spec is
/// built; MerlinSweep adds the series-length check, which needs n.
Status ValidateMerlinLengths(std::size_t min_length, std::size_t max_length);

/// MERLIN sweep: top discord for every m in [min_length, max_length]
/// (ties to the lowest position under kPanTieCorrEps, m/2
/// trivial-match exclusion) — exactly TopDiscords(ComputeMatrixProfile(
/// series, m), 1) per length, found by the bound-and-refine search
/// described above. Every reported distance comes from an exact
/// locally-centered refinement row, and the output is bit-identical at
/// every thread count and SIMD tier. Returns InvalidArgument on a bad
/// range or a series too short for max_length, and Internal("no
/// discord found at length <m>") if a length has no refinable entry.
Result<std::vector<LengthDiscord>> MerlinSweep(const Series& series,
                                               std::size_t min_length,
                                               std::size_t max_length);

/// Detector adapter: the per-point score is the maximum
/// length-normalized discord coverage across the swept lengths, making
/// MERLIN usable in the common evaluation pipeline.
class MerlinDetector : public AnomalyDetector {
 public:
  MerlinDetector(std::size_t min_length, std::size_t max_length);

  std::string_view name() const override { return name_; }
  using AnomalyDetector::Score;
  Result<std::vector<double>> Score(const Series& series,
                                    std::size_t train_length) const override;

  std::size_t min_length() const { return min_length_; }
  std::size_t max_length() const { return max_length_; }

 private:
  std::size_t min_length_;
  std::size_t max_length_;
  std::string name_;
};

}  // namespace tsad

#endif  // TSAD_DETECTORS_MERLIN_H_
