// The fault x severity robustness matrix — Fig 13 generalized.
//
// For each detector: score the clean series once, then re-score under
// every (fault, severity) cell and report how the output degrades —
// score-track correlation against the clean run, drift of the UCR
// predicted location, and whether the peak still lands inside the
// labeled anomaly. This is the "report invariances" recommendation of
// §4.2 extended from noise sweeps to the full fault taxonomy.

#ifndef TSAD_ROBUSTNESS_MATRIX_H_
#define TSAD_ROBUSTNESS_MATRIX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/series.h"
#include "common/status.h"
#include "detectors/detector.h"
#include "robustness/fault_injector.h"

namespace tsad {

struct RobustnessCase {
  FaultType fault = FaultType::kNanMissing;
  double severity = 0.1;
};

/// Every fault type at the given severities (default 5%, 10%, 20%).
std::vector<RobustnessCase> DefaultFaultMatrix(
    const std::vector<double>& severities = {0.05, 0.1, 0.2});

struct RobustnessConfig {
  std::vector<RobustnessCase> cases = DefaultFaultMatrix();
  uint64_t seed = 99;
};

/// One (detector, fault, severity) outcome.
struct RobustnessCell {
  std::string detector;
  FaultType fault = FaultType::kNanMissing;
  double severity = 0.0;
  Status status;               // of scoring the faulted series
  bool survived = false;       // OK + full length + all-finite scores
  double score_correlation = 0.0;  // Pearson vs the clean score track
  std::size_t peak_drift = 0;      // |peak(faulted) - peak(clean)|
  bool peak_correct = false;       // faulted peak within 100 pts of truth
  double discrimination = 0.0;     // of the faulted track
};

/// Runs the full matrix. Detectors whose clean run already fails
/// contribute cells carrying that status. `series` should be clean;
/// the harness injects the faults itself (seeded, reproducible).
std::vector<RobustnessCell> RunRobustnessMatrix(
    const LabeledSeries& series,
    const std::vector<const AnomalyDetector*>& detectors,
    const RobustnessConfig& config = {});

/// Renders cells as a per-detector degradation table (one row per
/// fault x severity).
std::string FormatRobustnessTable(const std::vector<RobustnessCell>& cells);

}  // namespace tsad

#endif  // TSAD_ROBUSTNESS_MATRIX_H_
