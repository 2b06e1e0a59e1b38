// MERLIN-style parameter-free discord discovery (Nakamura et al.,
// ICDM 2020, the paper's reference [18]): finds the top discord at
// every subsequence length in a range, so the user does not have to
// guess the window size.
//
// MerlinSweep runs on the pan-matrix-profile engine
// (substrates/pan_profile.h): ONE multi-length diagonal sweep shares
// the sliding dot products across every length of the range, and a
// pruned refinement re-measures only the top candidates exactly —
// instead of a full profile recompute per length. The classic DRAG
// candidate-selection algorithm (Yankov, Keogh & Rebbapragada, ICDM
// 2007 [20]) stays exported below as the standalone fixed-radius
// discord search, and MerlinSweepPerLength keeps the per-length
// recompute as the oracle/baseline the pan sweep is certified (and
// benchmarked) against.

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

/// DRAG: the top-1 discord of `series` at length m, given the guess r.
/// Succeeds iff the true top discord's NN distance is >= r; on success
/// `found` is true and the discord fields are filled.
struct DragResult {
  bool found = false;
  Discord discord;
};
DragResult DragTopDiscord(const Series& series, std::size_t m, double r);

/// MERLIN sweep: top discord for every m in [min_length, max_length]
/// (ties to the lowest position, m/2 trivial-match exclusion), computed
/// by the shared-dot pan-profile engine in one pass. Returns
/// InvalidArgument on a bad range or a series too short for max_length.
Result<std::vector<LengthDiscord>> MerlinSweep(const Series& series,
                                               std::size_t min_length,
                                               std::size_t max_length);

/// The pre-pan baseline: one full matrix profile + TopDiscords(mp, 1)
/// per length, with mutual-NN rounding-level ties resolved to the
/// lowest position by the shared kPanTieCorrEps contract (see
/// substrates/pan_profile.h). Same validation, same output contract as
/// MerlinSweep — the oracle its equivalence tests check against and
/// the "before" leg of the MERLIN bench. Runs ComputeMatrixProfile,
/// so it benefits from --mp-isa.
Result<std::vector<LengthDiscord>> MerlinSweepPerLength(
    const Series& series, std::size_t min_length, std::size_t max_length);

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
