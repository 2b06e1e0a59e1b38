// Multivariate detection by per-dimension aggregation: run a univariate
// detector over every dimension of an OMNI/SMD-style machine and
// combine the score tracks. The paper's Fig 1 analysis (one dimension
// often gives the incident away) is exactly why max-aggregation of
// simple per-dimension detectors is a strong multivariate baseline.

#ifndef TSAD_DETECTORS_MULTIVARIATE_H_
#define TSAD_DETECTORS_MULTIVARIATE_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/series.h"
#include "common/status.h"
#include "detectors/detector.h"

namespace tsad {

/// Runs `detector` on every dimension and takes the per-point max, so
/// any dimension can raise the alarm (Fig 1 semantics). Each
/// dimension's score track is z-scaled first (per-dimension scores are
/// not commensurable across heterogeneous telemetry channels).
///
/// Dimensions on which the detector errors are skipped; if every
/// dimension errors the first error is returned.
Result<std::vector<double>> ScoreMultivariate(
    const AnomalyDetector& detector, const MultivariateSeries& machine);

}  // namespace tsad

#endif  // TSAD_DETECTORS_MULTIVARIATE_H_
