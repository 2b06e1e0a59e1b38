// Test oracles for the confusion-matrix scoring (scoring/confusion,
// scoring/point_adjust): the explicit point-wise confusion of binary
// predictions, the point-adjust expansion applied to a prediction
// vector, and the direct O(n * thresholds) best point-adjusted F1 that
// recomputes a full adjusted confusion per distinct score value. The
// single-sweep BestF1OverThresholds and BestPointAdjustedF1 in src/
// must agree with them exactly.

#ifndef TSAD_TESTS_SCORING_CONFUSION_ORACLE_H_
#define TSAD_TESTS_SCORING_CONFUSION_ORACLE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "scoring/confusion.h"

namespace tsad {
namespace testing {

/// Point-wise confusion of binary predictions against binary truth.
/// Returns InvalidArgument on length mismatch.
Result<Confusion> ComputeConfusion(const std::vector<uint8_t>& truth,
                                   const std::vector<uint8_t>& predictions);

/// Expands predictions under the point-adjust rule: any true region
/// touched by a positive prediction becomes fully predicted.
std::vector<uint8_t> PointAdjustPredictions(
    const std::vector<uint8_t>& truth, const std::vector<uint8_t>& predictions);

/// Point-adjusted confusion (ComputeConfusion after adjustment).
Result<Confusion> ComputePointAdjustedConfusion(
    const std::vector<uint8_t>& truth, const std::vector<uint8_t>& predictions);

/// Best point-adjusted F1 over all thresholds, one full adjusted
/// confusion per distinct score value. Quadratic on continuous tracks.
Result<BestF1> BestPointAdjustedF1Direct(const std::vector<uint8_t>& truth,
                                         const std::vector<double>& scores);

}  // namespace testing
}  // namespace tsad

#endif  // TSAD_TESTS_SCORING_CONFUSION_ORACLE_H_
