#include "core/mislabel.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/stats.h"
#include "substrates/matrix_profile.h"
#include "substrates/sliding_window.h"

namespace tsad {

namespace {

// Twin search. The comparison window is max(kTwinMinWindow, region
// length) points.
constexpr std::size_t kTwinMinWindow = 16;
// A candidate is a twin when its z-normalized distance to the labeled
// exemplar is below kTwinRatio x the median distance-profile value
// (i.e., it matches the anomaly far better than typical data does)...
constexpr double kTwinRatio = 0.25;
// ...AND below kTwinIdentityCap x sqrt(2m), the z-normalized distance
// at zero correlation (the maximum, at correlation -1, is 2*sqrt(m)).
// This near-identity requirement keeps phase-aligned seasonal windows
// (distance ~0.25-0.35 of max) from masquerading as twins; genuine
// twins (identical dropout, repeated freeze) sit within noise of zero.
constexpr double kTwinIdentityCap = 0.18;
// Margin (points) around labeled regions excluded from twin search.
constexpr std::size_t kTwinExclusionMargin = 8;
// At most this many twin findings are emitted per labeled region; the
// last finding's detail records how many more matches exist. (A label
// on a statistically unremarkable region — the paper's Fig 6 —
// legitimately matches dozens of places.)
constexpr std::size_t kTwinMaxPerRegion = 4;

// Constant runs: at least this long, with values within the tolerance.
constexpr std::size_t kConstantRunMinRun = 12;
constexpr double kConstantRunTolerance = 1e-9;

// Label toggling: kToggleMinRegions or more regions separated by gaps
// of at most kToggleMaxGap points make a finding.
constexpr std::size_t kToggleMaxGap = 8;
constexpr std::size_t kToggleMinRegions = 4;

// Series whose |r| reaches this are near-duplicates.
constexpr double kDuplicateCorrelation = 0.995;

// True if subsequence [pos, pos+m) stays clear of every labeled region
// by at least `margin` points.
bool ClearOfLabels(const LabeledSeries& series, std::size_t pos,
                   std::size_t m, std::size_t margin) {
  const std::size_t lo = pos > margin ? pos - margin : 0;
  const std::size_t hi = pos + m + margin;
  for (const AnomalyRegion& r : series.anomalies()) {
    if (lo < r.end && r.begin < hi) return false;
  }
  return true;
}

}  // namespace

std::string_view MislabelKindName(MislabelKind kind) {
  switch (kind) {
    case MislabelKind::kUnlabeledTwin:
      return "unlabeled-twin";
    case MislabelKind::kHalfLabeledConstant:
      return "half-labeled-constant";
    case MislabelKind::kLabelToggling:
      return "label-toggling";
    case MislabelKind::kDuplicateSeries:
      return "duplicate-series";
  }
  return "?";
}

std::vector<MislabelFinding> FindUnlabeledTwins(const LabeledSeries& series) {
  std::vector<MislabelFinding> findings;
  const Series& x = series.values();

  for (const AnomalyRegion& r : series.anomalies()) {
    const std::size_t m = std::max(kTwinMinWindow, r.length());
    if (m < 4 || m * 2 > x.size()) continue;
    // Center the window on the labeled region.
    std::size_t start = r.begin;
    if (m > r.length()) {
      const std::size_t extra = (m - r.length()) / 2;
      start = r.begin > extra ? r.begin - extra : 0;
    }
    if (start + m > x.size()) start = x.size() - m;

    const Result<std::vector<double>> distances = DistanceProfile(x, start, m);
    if (!distances.ok()) continue;
    const std::vector<double>& profile = *distances;
    const double median_dist = Median(profile);
    if (median_dist <= 1e-12) continue;  // degenerate (constant series)
    const double max_distance = std::sqrt(2.0 * static_cast<double>(m));
    const double threshold = std::min(kTwinRatio * median_dist,
                                      kTwinIdentityCap * max_distance);

    // Scan for matches clear of all labels; keep local minima and
    // suppress neighbors within m points.
    struct Match {
      std::size_t position;
      double distance;
    };
    std::vector<Match> matches;
    std::size_t i = 0;
    while (i < profile.size()) {
      if (profile[i] < threshold &&
          ClearOfLabels(series, i, m, kTwinExclusionMargin)) {
        // Refine to the local minimum of this match.
        std::size_t best = i;
        std::size_t j = i;
        while (j < profile.size() && j < i + m) {
          if (profile[j] < profile[best] &&
              ClearOfLabels(series, j, m, kTwinExclusionMargin)) {
            best = j;
          }
          ++j;
        }
        matches.push_back({best, profile[best]});
        i = j;
      } else {
        ++i;
      }
    }
    // Emit the closest kTwinMaxPerRegion matches; note how many more
    // exist.
    std::sort(matches.begin(), matches.end(),
              [](const Match& a, const Match& b) {
                return a.distance < b.distance;
              });
    const std::size_t emit = std::min(matches.size(), kTwinMaxPerRegion);
    for (std::size_t k = 0; k < emit; ++k) {
      MislabelFinding f;
      f.kind = MislabelKind::kUnlabeledTwin;
      f.series_name = series.name();
      f.position = matches[k].position;
      f.distance = matches[k].distance;
      f.reference_distance = median_dist;
      f.proposed = {matches[k].position, matches[k].position + m};
      f.detail = "subsequence at " + std::to_string(matches[k].position) +
                 " matches the labeled anomaly at [" +
                 std::to_string(r.begin) + ", " + std::to_string(r.end) +
                 ") with distance " + std::to_string(matches[k].distance) +
                 " (median " + std::to_string(median_dist) + ")";
      if (k + 1 == emit && matches.size() > emit) {
        f.detail += "; " + std::to_string(matches.size() - emit) +
                    " further match(es) suppressed";
      }
      findings.push_back(std::move(f));
    }
  }
  return findings;
}

std::vector<MislabelFinding> AuditConstantRuns(const LabeledSeries& series) {
  std::vector<MislabelFinding> findings;
  const auto runs = FindConstantRuns(series.values(), kConstantRunMinRun,
                                     kConstantRunTolerance);
  for (const auto& [begin, end] : runs) {
    std::size_t labeled = 0;
    for (std::size_t i = begin; i < end; ++i) {
      if (series.IsAnomalous(i)) ++labeled;
    }
    const std::size_t run_len = end - begin;
    if (labeled == 0 || labeled == run_len) continue;  // consistent
    MislabelFinding f;
    f.kind = MislabelKind::kHalfLabeledConstant;
    f.series_name = series.name();
    // Focal point: the first unlabeled point of the run.
    for (std::size_t i = begin; i < end; ++i) {
      if (!series.IsAnomalous(i)) {
        f.position = i;
        break;
      }
    }
    f.proposed = {begin, end};
    f.detail = "constant run [" + std::to_string(begin) + ", " +
               std::to_string(end) + ") has " + std::to_string(labeled) +
               "/" + std::to_string(run_len) +
               " points labeled; nothing changes within the run";
    findings.push_back(std::move(f));
  }
  return findings;
}

std::vector<MislabelFinding> AuditLabelToggling(const LabeledSeries& series) {
  std::vector<MislabelFinding> findings;
  const auto& regions = series.anomalies();
  std::size_t i = 0;
  while (i < regions.size()) {
    // Grow a chain of regions separated by gaps <= kToggleMaxGap.
    std::size_t j = i;
    while (j + 1 < regions.size() &&
           regions[j + 1].begin - regions[j].end <= kToggleMaxGap) {
      ++j;
    }
    const std::size_t chain = j - i + 1;
    if (chain >= kToggleMinRegions) {
      MislabelFinding f;
      f.kind = MislabelKind::kLabelToggling;
      f.series_name = series.name();
      f.position = regions[i].begin;
      f.proposed = {regions[i].begin, regions[j].end};
      f.detail = std::to_string(chain) +
                 " labeled regions toggle with gaps <= " +
                 std::to_string(kToggleMaxGap) +
                 "; propose the single region [" +
                 std::to_string(f.proposed.begin) + ", " +
                 std::to_string(f.proposed.end) + ")";
      findings.push_back(std::move(f));
    }
    i = j + 1;
  }
  return findings;
}

std::vector<MislabelFinding> FindDuplicateSeries(
    const BenchmarkDataset& dataset) {
  std::vector<MislabelFinding> findings;
  for (std::size_t a = 0; a < dataset.series.size(); ++a) {
    for (std::size_t b = a + 1; b < dataset.series.size(); ++b) {
      const Series& xa = dataset.series[a].values();
      const Series& xb = dataset.series[b].values();
      const std::size_t n = std::min(xa.size(), xb.size());
      if (n < 16) continue;
      const Series ta(xa.begin(), xa.begin() + static_cast<std::ptrdiff_t>(n));
      const Series tb(xb.begin(), xb.begin() + static_cast<std::ptrdiff_t>(n));
      const double r = PearsonCorrelation(ta, tb);
      if (std::fabs(r) >= kDuplicateCorrelation) {
        MislabelFinding f;
        f.kind = MislabelKind::kDuplicateSeries;
        f.series_name = dataset.series[a].name();
        f.distance = 1.0 - std::fabs(r);
        f.detail = "series '" + dataset.series[a].name() + "' and '" +
                   dataset.series[b].name() +
                   "' are near-duplicates (|r| = " + std::to_string(r) + ")";
        findings.push_back(std::move(f));
      }
    }
  }
  return findings;
}

std::vector<MislabelFinding> AuditDatasetLabels(
    const BenchmarkDataset& dataset, bool run_twin_search) {
  std::vector<MislabelFinding> findings;
  for (const LabeledSeries& s : dataset.series) {
    if (run_twin_search) {
      auto twins = FindUnlabeledTwins(s);
      findings.insert(findings.end(), twins.begin(), twins.end());
    }
    auto constant = AuditConstantRuns(s);
    findings.insert(findings.end(), constant.begin(), constant.end());
    auto toggling = AuditLabelToggling(s);
    findings.insert(findings.end(), toggling.begin(), toggling.end());
  }
  auto duplicates = FindDuplicateSeries(dataset);
  findings.insert(findings.end(), duplicates.begin(), duplicates.end());
  return findings;
}

}  // namespace tsad
