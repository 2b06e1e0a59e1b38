// Simulator of the OMNI / Server Machine Dataset (Su et al. KDD'19 —
// the paper's reference [3]): 28 machines, each a 38-dimensional
// telemetry matrix sharing one label track. Reproduces the paper's
// touchstones:
//
//  * "SDM3-11": dimension 19 carries a clean level-shift anomaly that
//    dozens of one-liners solve (Fig 1); the paper calls it "one of the
//    harder of the 38 dimensions" — most others are even easier.
//  * "machine-2-5": 21 separate anomaly regions packed into a short
//    span (§2.3's density flaw).
//  * About half the machines are trivially easy, matching "of the
//    twenty-eight example problems ... at least half are this easy."

#ifndef TSAD_DATASETS_OMNI_H_
#define TSAD_DATASETS_OMNI_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/series.h"

namespace tsad {

struct OmniConfig {
  uint64_t seed = 23;
  std::size_t num_machines = 28;
  std::size_t num_dimensions = 38;
  std::size_t machine_length = 3000;
  std::size_t train_length = 800;
};

struct OmniArchive {
  std::vector<MultivariateSeries> machines;
  /// Names of the machines generated as "easy".
  std::vector<std::string> easy_machines;

  const MultivariateSeries* FindMachine(const std::string& name) const {
    for (const MultivariateSeries& m : machines) {
      if (m.name() == name) return &m;
    }
    return nullptr;
  }
};

OmniArchive GenerateOmniArchive(const OmniConfig& config = {});

}  // namespace tsad

#endif  // TSAD_DATASETS_OMNI_H_
