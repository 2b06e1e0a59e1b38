// Simulator of the NASA SMAP / MSL telemetry benchmark (Hundman et al.
// KDD'18 — the paper's reference [2]). Channels reproduce the anomaly
// morphologies and the label pathologies the paper calls out:
//
//  * "orders of magnitude" value jumps — beyond-trivial anomalies
//    (§2.2),
//  * dynamic behavior that becomes frozen (the diff(diff(TS)) == 0
//    one-liner), with the Fig 9 pathology: one labeled freeze and two
//    essentially identical UNLABELED freezes in the same channel
//    ("G-1"),
//  * run-to-failure style long contiguous anomaly regions covering
//    one-half or one-third of the test span ("D-2", "M-1", "M-2",
//    §2.3's density flaw),
//  * a minority (~10%) of genuinely challenging channels.
//
// Channels carry a training prefix like the real archive (separate
// train files). Planted-but-unlabeled defects are recorded for the
// mislabel auditor's tests.

#ifndef TSAD_DATASETS_NASA_H_
#define TSAD_DATASETS_NASA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/series.h"

namespace tsad {

struct NasaConfig {
  uint64_t seed = 11;
};

struct NasaArchive {
  BenchmarkDataset channels;
  /// Unlabeled twin freezes in channel G-1 (start indices).
  std::vector<std::size_t> g1_unlabeled_freezes;

  const LabeledSeries* FindChannel(const std::string& name) const {
    for (const LabeledSeries& s : channels.series) {
      if (s.name() == name) return &s;
    }
    return nullptr;
  }
};

/// Generates the simulated archive (a dozen channels spanning the four
/// morphologies above).
NasaArchive GenerateNasaArchive(const NasaConfig& config = {});

}  // namespace tsad

#endif  // TSAD_DATASETS_NASA_H_
