// Simulator of the Yahoo S5 / Webscope anomaly benchmark (the paper's
// reference [5]): 367 labeled series in four sub-benchmarks,
// A1 (67 "real" operations series) and A2/A3/A4 (100 synthetic series
// each).
//
// The real archive is license-gated; this simulator reproduces the
// *structural properties* the paper's analysis depends on (DESIGN.md §2):
//
//  * Triviality (§2.2 / Table 1): most anomalies are separable in the
//    diff domain. A1/A2 anomalies yield to the abs() one-liners (3)/(4)
//    — (4) where the noise scale drifts; A3/A4 ride on sawtooth
//    seasonalities whose steep descents defeat abs(diff), leaving the
//    signed forms (5)/(6). A calibrated fraction of each sub-benchmark
//    is genuinely hard (contextual humps, sub-noise level shifts).
//  * Run-to-failure (§2.5 / Fig 10): A1/A2 anomaly positions are biased
//    toward the end of each series.
//  * Mislabeled ground truth (§2.4 / Figs 4-7): specific A1 series are
//    planted with the paper's defects — a half-labeled constant region
//    (A1-Real32), an unlabeled twin dropout (A1-Real46), a labeled
//    region statistically identical to dozens of unlabeled ones
//    (A1-Real47), over-precise toggling labels after a regime change
//    (A1-Real67), and a duplicated pair (A1-Real13/A1-Real15).
//  * Density (§2.3): Fig 3-style adjacent anomalies sandwiching a
//    single normal point.
//
// Every planted defect is recorded in YahooArchive::planted_defects so
// the flaw-analyzer tests can assert they are rediscovered, not assumed.

#ifndef TSAD_DATASETS_YAHOO_H_
#define TSAD_DATASETS_YAHOO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/series.h"

namespace tsad {

struct YahooConfig {
  uint64_t seed = 42;
  std::size_t a1_count = 67;
  std::size_t a2_count = 100;
  std::size_t a3_count = 100;
  std::size_t a4_count = 100;
  std::size_t a1_length = 1420;        // ~ the real A1 series length
  std::size_t synthetic_length = 1680; // ~ the real A2-A4 series length
  double run_to_failure_bias = 0.75;   // end bias for A1/A2 positions
};

/// What kind of series the generator produced — the hidden cause behind
/// each series' one-liner solvability. Exposed so tests and benches can
/// verify the archive's composition without re-deriving it.
enum class YahooSeriesKind {
  kGlobalSpikes,     // solvable with a global threshold: (3) or (5)
  kAdaptiveSpikes,   // needs local movmean/movstd: (4) or (6)
  kHard,             // not one-liner solvable by construction
  kMislabelSpecial,  // one of the planted-defect series
};

/// A deliberately planted ground-truth defect (for auditing tests).
struct PlantedDefect {
  std::string series_name;
  std::string kind;       // "half-labeled-constant", "unlabeled-twin", ...
  std::size_t position = 0;  // index of the defect's focal point
};

struct YahooArchive {
  BenchmarkDataset a1, a2, a3, a4;
  /// Per-series generation kinds, parallel to the datasets above.
  std::vector<YahooSeriesKind> a1_kinds, a2_kinds, a3_kinds, a4_kinds;
  std::vector<PlantedDefect> planted_defects;

  /// All four sub-benchmarks in order (A1, A2, A3, A4).
  std::vector<const BenchmarkDataset*> all() const {
    return {&a1, &a2, &a3, &a4};
  }
};

/// Generates the full simulated archive. Deterministic in config.seed.
YahooArchive GenerateYahooArchive(const YahooConfig& config = {});

}  // namespace tsad

#endif  // TSAD_DATASETS_YAHOO_H_
