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

struct TwinSearchConfig {
  /// Subsequence length floor for the comparison window (the window is
  /// max(min_window, region length)).
  std::size_t min_window = 16;
  /// A candidate is a twin when its z-normalized distance to the
  /// labeled exemplar is below `ratio` x the median distance-profile
  /// value (i.e., it matches the anomaly far better than typical data
  /// does)...
  double ratio = 0.25;
  /// ...AND below `identity_cap` x sqrt(2m), the z-normalized distance
  /// at zero correlation (the maximum, at correlation -1, is 2*sqrt(m)).
  /// This near-identity requirement keeps
  /// phase-aligned seasonal windows (distance ~0.25-0.35 of max) from
  /// masquerading as twins; genuine twins (identical dropout, repeated
  /// freeze) sit within noise of zero.
  double identity_cap = 0.18;
  /// Margin (points) around labeled regions excluded from twin search.
  std::size_t exclusion_margin = 8;
  /// At most this many twin findings are emitted per labeled region;
  /// the last finding's detail records how many more matches exist.
  /// (A label on a statistically unremarkable region — the paper's
  /// Fig 6 — legitimately matches dozens of places.)
  std::size_t max_per_region = 4;
};

/// Finds unlabeled twins of each labeled anomaly via MASS profiles.
std::vector<MislabelFinding> FindUnlabeledTwins(
    const LabeledSeries& series, const TwinSearchConfig& config = {});

struct ConstantRunAuditConfig {
  std::size_t min_run = 12;
  double tolerance = 1e-9;
};

/// Finds constant runs that are partially (but not fully) labeled.
std::vector<MislabelFinding> AuditConstantRuns(
    const LabeledSeries& series, const ConstantRunAuditConfig& config = {});

struct TogglingAuditConfig {
  std::size_t max_gap = 8;      // gaps this small are "toggling"
  std::size_t min_regions = 4;  // this many close regions = a finding
};

/// Finds rapid label toggling and proposes the merged region.
std::vector<MislabelFinding> AuditLabelToggling(
    const LabeledSeries& series, const TogglingAuditConfig& config = {});

/// Finds near-duplicate series pairs by Pearson correlation of
/// length-truncated values (threshold on |r|).
std::vector<MislabelFinding> FindDuplicateSeries(
    const BenchmarkDataset& dataset, double correlation_threshold = 0.995);

/// Runs all four audits over a dataset.
struct MislabelAuditConfig {
  TwinSearchConfig twins;
  ConstantRunAuditConfig constant_runs;
  TogglingAuditConfig toggling;
  double duplicate_correlation = 0.995;
  bool run_twin_search = true;  // the expensive audit; can be disabled
};

std::vector<MislabelFinding> AuditDatasetLabels(
    const BenchmarkDataset& dataset, const MislabelAuditConfig& config = {});

}  // namespace tsad

#endif  // TSAD_CORE_MISLABEL_H_
