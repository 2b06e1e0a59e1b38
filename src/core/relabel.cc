#include "core/relabel.h"

namespace tsad {

LabeledSeries ApplyFindings(const LabeledSeries& series,
                            const std::vector<MislabelFinding>& findings,
                            RelabelSummary* summary) {
  std::vector<AnomalyRegion> regions = series.anomalies();
  RelabelSummary local;
  for (const MislabelFinding& f : findings) {
    if (f.series_name != series.name()) continue;
    switch (f.kind) {
      case MislabelKind::kUnlabeledTwin:
        if (f.proposed.length() > 0) {
          regions.push_back(f.proposed);
          ++local.twins_added;
        }
        break;
      case MislabelKind::kHalfLabeledConstant:
        // The proposed region is the full constant run; adding it and
        // normalizing merges it with the partial label.
        if (f.proposed.length() > 0) {
          regions.push_back(f.proposed);
          ++local.runs_extended;
        }
        break;
      case MislabelKind::kLabelToggling: {
        // Drop the toggling chain inside the proposed span, then label
        // the span as one region.
        if (f.proposed.length() == 0) break;
        std::erase_if(regions, [&](const AnomalyRegion& r) {
          return r.begin >= f.proposed.begin && r.end <= f.proposed.end;
        });
        regions.push_back(f.proposed);
        ++local.toggles_merged;
        break;
      }
      case MislabelKind::kDuplicateSeries:
        ++local.findings_ignored;
        break;
    }
  }
  if (summary != nullptr) {
    summary->twins_added += local.twins_added;
    summary->runs_extended += local.runs_extended;
    summary->toggles_merged += local.toggles_merged;
    summary->findings_ignored += local.findings_ignored;
  }
  LabeledSeries out = series;
  out.set_anomalies(std::move(regions));
  return out;
}

}  // namespace tsad
