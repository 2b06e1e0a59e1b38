// Relabeling: §4.1 says existing papers should "ideally [be]
// reevaluated on new challenging datasets"; the constructive half of
// that is fixing the labels the audit proved wrong. This module applies
// mislabel findings back onto a dataset:
//
//  * unlabeled twins     -> the twin's region becomes ground truth
//                           (Fig 5's D, Fig 9's two unlabeled freezes),
//  * half-labeled runs   -> the label covers the whole constant run
//                           (Fig 4: "literally nothing has changed"),
//  * toggling labels     -> the chain collapses into one region
//                           (Fig 7: the paper's proposed label).
//
// Duplicate-series findings are reported, not "fixed" — deduplication
// is an archive-curation decision.

#ifndef TSAD_CORE_RELABEL_H_
#define TSAD_CORE_RELABEL_H_

#include <vector>

#include "common/series.h"
#include "core/mislabel.h"

namespace tsad {

struct RelabelSummary {
  std::size_t twins_added = 0;
  std::size_t runs_extended = 0;
  std::size_t toggles_merged = 0;
  std::size_t findings_ignored = 0;  // duplicates and unknown kinds
};

/// Returns a copy of `series` with the findings' proposed labels
/// applied (regions are normalized/merged afterwards). Findings whose
/// series_name does not match are ignored.
LabeledSeries ApplyFindings(const LabeledSeries& series,
                            const std::vector<MislabelFinding>& findings,
                            RelabelSummary* summary = nullptr);

}  // namespace tsad

#endif  // TSAD_CORE_RELABEL_H_
