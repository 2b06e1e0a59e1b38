#include "core/report.h"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

namespace tsad {

std::string AsciiSparkline(const Series& values, std::size_t width) {
  static constexpr const char* kLevels[] = {" ", ".", ":", "-",
                                            "=", "+", "*", "#"};
  if (values.empty() || width == 0) return "";
  double lo = values[0], hi = values[0];
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double range = hi - lo > 1e-12 ? hi - lo : 1.0;
  // Exact-width bucketing: bucket i covers [i*n/w, (i+1)*n/w) and
  // renders its maximum. Series shorter than the width render one
  // character per point.
  const std::size_t n = values.size();
  const std::size_t cells = std::min(width, n);
  std::string out;
  out.reserve(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    const std::size_t begin = c * n / cells;
    const std::size_t end = std::max(begin + 1, (c + 1) * n / cells);
    double peak = values[begin];
    for (std::size_t j = begin; j < end && j < n; ++j) {
      peak = std::max(peak, values[j]);
    }
    int level = static_cast<int>((peak - lo) / range * 7.0 + 0.5);
    level = std::clamp(level, 0, 7);
    out += kLevels[level];
  }
  return out;
}

std::string RenderAuditReport(const BenchmarkAudit& audit,
                              const BenchmarkDataset& dataset) {
  // Sparkline panels: how many flagged series get one, and its width
  // in characters.
  constexpr std::size_t kMaxPanels = 6;
  constexpr std::size_t kSparklineWidth = 72;
  std::ostringstream md;
  md << "# Benchmark audit: " << audit.dataset_name << "\n\n";
  md << "**Verdict: "
     << (audit.irretrievably_flawed ? "IRRETRIEVABLY FLAWED" : "no flaw found")
     << "**\n\n";
  for (const std::string& reason : audit.verdict_reasons) {
    md << "- " << reason << "\n";
  }

  // --- Triviality -----------------------------------------------------
  md << "\n## Triviality (one-liner brute force)\n\n";
  md << audit.triviality.solved << " / " << audit.triviality.total
     << " series (" << audit.triviality.solved_percent()
     << "%) are solvable by a single line of the equation (1)-(6) "
        "family.\n\n";
  md << "| series | solving one-liner |\n|---|---|\n";
  std::size_t listed = 0;
  for (const SeriesTriviality& s : audit.triviality.series) {
    if (!s.solution.solved) continue;
    md << "| " << s.series_name << " | `" << s.solution.params.ToMatlab()
       << "` |\n";
    if (++listed >= 15) {
      md << "| ... | (" << audit.triviality.solved - listed
         << " more solved series) |\n";
      break;
    }
  }

  // --- Density ----------------------------------------------------------
  md << "\n## Anomaly density\n\n";
  md << "- series with one region covering > 1/2 of the test span: "
     << audit.density.over_half << "\n";
  md << "- series with one region covering > 1/3: " << audit.density.over_third
     << "\n";
  md << "- series with >= 10 labeled regions: " << audit.density.many_regions
     << "\n";
  md << "- series with adjacent labeled regions: " << audit.density.adjacent
     << "\n";
  md << "- series with the ideal single anomaly: "
     << audit.density.single_anomaly << " / " << audit.density.stats.size()
     << "\n";

  // --- Mislabels --------------------------------------------------------
  md << "\n## Ground-truth findings\n\n";
  if (audit.mislabels.empty()) {
    md << "none\n";
  } else {
    md << "| kind | series | detail |\n|---|---|---|\n";
    std::size_t shown = 0;
    for (const MislabelFinding& f : audit.mislabels) {
      md << "| " << MislabelKindName(f.kind) << " | " << f.series_name
         << " | " << f.detail << " |\n";
      if (++shown >= 20) {
        md << "| ... | | (" << audit.mislabels.size() - shown
           << " more findings) |\n";
        break;
      }
    }
  }

  // --- Run-to-failure -----------------------------------------------------
  md << "\n## Run-to-failure bias\n\n";
  md << "- mean relative position of the last anomaly: "
     << audit.run_to_failure.mean_position << "\n";
  md << "- fraction in the last quintile: "
     << 100.0 * audit.run_to_failure.fraction_in_last_quintile << "%\n";
  md << "- KS statistic vs Uniform(0,1): " << audit.run_to_failure.ks_statistic
     << "\n";
  md << "- naive last-point hit rate: "
     << 100.0 * audit.run_to_failure.last_point_hit_rate << "%\n";

  // --- Panels -------------------------------------------------------------
  std::set<std::string> flagged;
  for (const MislabelFinding& f : audit.mislabels) {
    flagged.insert(f.series_name);
  }
  if (!flagged.empty()) {
    md << "\n## Flagged series (visual check, per the paper's §4.3)\n";
    std::size_t panels = 0;
    for (const LabeledSeries& s : dataset.series) {
      if (flagged.count(s.name()) == 0) continue;
      md << "\n### " << s.name() << "\n\n```\n"
         << AsciiSparkline(s.values(), kSparklineWidth) << "\n";
      // Label track beneath.
      const auto labels = s.BinaryLabels();
      Series label_track(labels.begin(), labels.end());
      md << AsciiSparkline(label_track, kSparklineWidth)
         << "  <- labels\n```\n";
      if (++panels >= kMaxPanels) break;
    }
  }
  return md.str();
}

Status WriteAuditReport(const BenchmarkAudit& audit,
                        const BenchmarkDataset& dataset,
                        const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  out << RenderAuditReport(audit, dataset);
  out.flush();
  if (!out) return Status::IOError("error writing '" + path + "'");
  return Status::OK();
}

}  // namespace tsad
