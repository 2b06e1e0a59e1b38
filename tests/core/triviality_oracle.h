// Test oracles for the Table 1 brute force (core/triviality).
//
// SolveWithFormDirect / FindOneLinerDirect are the pre-memoization
// search, frozen verbatim: every (k, c) candidate recomputes its diff
// track and moving windows from scratch via OneLinerMargin, and every
// b sweep rebuilds the allowed mask and region bounds. The memoized
// search in src/ must return IDENTICAL solutions (same solved flag,
// params, and headroom bits).
//
// FlagsSolve states the solve criterion directly on a flag vector, so
// any one-liner the search returns can be checked by evaluating it.

#ifndef TSAD_TESTS_CORE_TRIVIALITY_ORACLE_H_
#define TSAD_TESTS_CORE_TRIVIALITY_ORACLE_H_

#include <cstdint>
#include <vector>

#include "common/series.h"
#include "core/triviality.h"

namespace tsad {
namespace testing {

/// Checks the solve criterion for an explicit flag vector.
bool FlagsSolve(const LabeledSeries& series, const std::vector<uint8_t>& flags,
                const SolveCriteria& criteria = {});

TrivialitySolution SolveWithFormDirect(const LabeledSeries& series,
                                       OneLinerForm form,
                                       const OneLinerSearchSpace& space = {},
                                       const SolveCriteria& criteria = {});
/// FindOneLiner's default search, run form by form with
/// SolveWithFormDirect.
TrivialitySolution FindOneLinerDirect(const LabeledSeries& series);

}  // namespace testing
}  // namespace tsad

#endif  // TSAD_TESTS_CORE_TRIVIALITY_ORACLE_H_
