// Test oracle for MERLIN (detectors/merlin).
//
// MerlinSweepPerLength recomputes each length from scratch: one full
// ComputeMatrixProfile and TopDiscords(mp, 1) per length, with
// mutual-NN rounding-level ties resolved to the lowest position by the
// shared kPanTieCorrEps contract. It validates as MerlinSweep does and
// has its output contract, so the bound-and-refine search in src/ must
// report the same lengths and positions, with distances equal to
// rounding (the oracle's ride the kernel recurrence, the search's come
// from exact refinement rows).

#ifndef TSAD_TESTS_DETECTORS_MERLIN_ORACLE_H_
#define TSAD_TESTS_DETECTORS_MERLIN_ORACLE_H_

#include <cstddef>
#include <vector>

#include "common/series.h"
#include "common/status.h"
#include "detectors/merlin.h"

namespace tsad {
namespace testing {

/// The top discord of every m in [min_length, max_length], one self-join
/// per length. Same validation and messages as MerlinSweep.
Result<std::vector<LengthDiscord>> MerlinSweepPerLength(
    const Series& series, std::size_t min_length, std::size_t max_length);

}  // namespace testing
}  // namespace tsad

#endif  // TSAD_TESTS_DETECTORS_MERLIN_ORACLE_H_
