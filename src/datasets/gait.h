// Synthetic force-plate gait data for the Fig 12 archive-construction
// demo: an individual with an antalgic (asymmetric) gait — strong,
// normal right-foot cycles and weak, tentative left-foot cycles. The
// anomaly is created exactly as in the paper: one randomly chosen
// right-foot cycle is replaced by the corresponding left-foot cycle
// (shifted by half a cycle). Turn-around speed changes at the ends of
// the force plate appear in BOTH the training and test spans, so they
// must not be flagged.

#ifndef TSAD_DATASETS_GAIT_H_
#define TSAD_DATASETS_GAIT_H_

#include <cstddef>
#include <cstdint>

#include "common/series.h"

namespace tsad {

/// Samples per gait cycle.
inline constexpr std::size_t kGaitCycleLength = 230;
/// The walker turns around (a speed change) every this many cycles,
/// so at least one turnaround falls in train and one in test.
inline constexpr std::size_t kGaitTurnaroundEvery = 12;

struct GaitConfig {
  uint64_t seed = 17;
  std::size_t num_cycles = 52;      // total cycles (~12k points)
  std::size_t train_cycles = 26;    // training prefix, in cycles
};

struct GaitData {
  /// The UCR-style dataset: right-foot telemetry with one swapped-in
  /// left-foot cycle, named UCR_Anomaly_park3m_<train>_<begin>_<end>.
  LabeledSeries series;
  std::size_t anomaly_cycle = 0;  // which cycle was swapped
};

GaitData GenerateGaitData(const GaitConfig& config = {});

}  // namespace tsad

#endif  // TSAD_DATASETS_GAIT_H_
