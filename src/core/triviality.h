// The triviality analyzer (§2.2, Table 1): decides whether a labeled
// series is "trivial" in the paper's Definition-1 sense — solvable by a
// one-liner from the equation (1)-(6) family — by brute-force searching
// the (form, k, c) grid with an EXACT sweep over the offset b.
//
// The b sweep is exact because for a fixed form/k/c the predicate
// "margin > b" fires on a monotone family of point sets: the series is
// solvable iff the smallest per-region maximum margin exceeds the
// largest margin at any point that must not fire. No b grid needed.
//
// "Solved" means perfect detection under a small positional slop: every
// ground-truth region is hit by at least one flag within `slop` points,
// and no flag lands more than `slop` points from a region (§4.4's
// "play" to avoid punishing output formatting).

#ifndef TSAD_CORE_TRIVIALITY_H_
#define TSAD_CORE_TRIVIALITY_H_

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "common/series.h"
#include "detectors/oneliner.h"

namespace tsad {

struct SolveCriteria {
  /// Positional tolerance, in points, on each side of a labeled region.
  std::size_t slop = 3;
  /// Minimum relative separation between the weakest region margin and
  /// the strongest forbidden margin for a configuration to count as a
  /// solution (0 = any strict separation). Raising this filters out
  /// "lucky" solutions that overfit a noise maximum inside a wide
  /// labeled region.
  double min_headroom = 0.0;
};

struct OneLinerSearchSpace {
  std::vector<std::size_t> ks = {5, 11, 21, 51, 101, 151};
  std::vector<double> cs = {0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0};
};

/// Outcome of the search on one series.
struct TrivialitySolution {
  bool solved = false;
  OneLinerParams params;  // valid iff solved
  /// Margin headroom: (smallest region max-margin) - (largest forbidden
  /// margin), normalized by their midpoint's magnitude. Larger = the
  /// one-liner separates more decisively.
  double headroom = 0.0;
};

/// Searches only the given form's parameter grid. Forms (3)/(5) ignore
/// the k/c grids.
TrivialitySolution SolveWithForm(const LabeledSeries& series,
                                 OneLinerForm form,
                                 const OneLinerSearchSpace& space = {},
                                 const SolveCriteria& criteria = {});

/// Tries the forms in the paper's numbering order (3), (4), (5), (6)
/// and returns the first solving configuration.
TrivialitySolution FindOneLiner(const LabeledSeries& series,
                                const OneLinerSearchSpace& space = {},
                                const SolveCriteria& criteria = {});

/// Per-dataset Table 1 row.
struct DatasetTriviality {
  std::string dataset_name;
  std::size_t total = 0;
  /// Solved counts by form, indexed by static_cast<int>(OneLinerForm).
  std::array<std::size_t, 4> solved_by_form = {0, 0, 0, 0};
  std::size_t solved = 0;

  double solved_percent() const {
    return total == 0 ? 0.0
                      : 100.0 * static_cast<double>(solved) /
                            static_cast<double>(total);
  }
};

/// Per-series record (for galleries and debugging).
struct SeriesTriviality {
  std::string series_name;
  TrivialitySolution solution;
};

struct TrivialityReport {
  std::vector<DatasetTriviality> datasets;
  std::vector<SeriesTriviality> series;  // across all datasets, in order
  std::size_t total = 0;
  std::size_t solved = 0;

  double solved_percent() const {
    return total == 0 ? 0.0
                      : 100.0 * static_cast<double>(solved) /
                            static_cast<double>(total);
  }
};

/// Runs the brute force over whole datasets — the Table 1 engine.
TrivialityReport AnalyzeTriviality(
    const std::vector<const BenchmarkDataset*>& datasets,
    const OneLinerSearchSpace& space = {}, const SolveCriteria& criteria = {});

}  // namespace tsad

#endif  // TSAD_CORE_TRIVIALITY_H_
