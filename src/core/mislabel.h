// The mislabeled-ground-truth auditor (§2.4, Figs 4-7 & 9). Four
// automated audits, each targeting one pathology the paper documents:
//
//  * Unlabeled twins (Figs 5, 9): a labeled anomaly whose z-normalized
//    nearest neighbor OUTSIDE every labeled region is (nearly)
//    identical — if the labeled one is an anomaly, so is its twin.
//  * Half-labeled constant runs (Fig 4): a maximal constant run where
//    the label covers part of the flat line and not the rest, although
//    "literally nothing has changed" within it.
//  * Label toggling (Fig 7): many labeled regions separated by tiny
//    gaps right after a regime change — unreasonably precise labels;
//    the auditor proposes the merged region instead.
//  * Duplicate series (A1-Real13/15): near-identical datasets inflate
//    apparent archive size.

#ifndef TSAD_CORE_MISLABEL_H_
#define TSAD_CORE_MISLABEL_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/series.h"
#include "common/status.h"

namespace tsad {

enum class MislabelKind {
  kUnlabeledTwin,
  kHalfLabeledConstant,
  kLabelToggling,
  kDuplicateSeries,
};

std::string_view MislabelKindName(MislabelKind kind);

struct MislabelFinding {
  MislabelKind kind = MislabelKind::kUnlabeledTwin;
  std::string series_name;
  /// Focal point of the problem (twin position, first unlabeled flat
  /// point, start of the toggling span, ...).
  std::size_t position = 0;
  /// For twins: distance to the labeled exemplar and the series median
  /// profile distance for context. For toggling: the proposed merged
  /// region is in `proposed`.
  double distance = 0.0;
  double reference_distance = 0.0;
  AnomalyRegion proposed;  // suggested relabel, when applicable
  std::string detail;
};

/// Finds unlabeled twins of each labeled anomaly via MASS profiles: a
/// window clear of every label whose z-normalized distance to the
/// labeled exemplar is both far below the series' median and near
/// identity (the thresholds and their rationale are in mislabel.cc).
std::vector<MislabelFinding> FindUnlabeledTwins(const LabeledSeries& series);

/// Finds constant runs (at least 12 points within 1e-9) that are
/// partially (but not fully) labeled.
std::vector<MislabelFinding> AuditConstantRuns(const LabeledSeries& series);

/// Finds rapid label toggling (4 or more regions separated by gaps of
/// at most 8 points) and proposes the merged region.
std::vector<MislabelFinding> AuditLabelToggling(const LabeledSeries& series);

/// Finds near-duplicate series pairs by Pearson correlation of
/// length-truncated values (|r| >= 0.995).
std::vector<MislabelFinding> FindDuplicateSeries(
    const BenchmarkDataset& dataset);

/// Runs all four audits over a dataset; `run_twin_search` = false skips
/// the expensive twin search.
std::vector<MislabelFinding> AuditDatasetLabels(
    const BenchmarkDataset& dataset, bool run_twin_search = true);

}  // namespace tsad

#endif  // TSAD_CORE_MISLABEL_H_
