#include "scoring/nab.h"

#include <algorithm>
#include <cmath>

namespace tsad {

namespace {

// Window budget per series, as a fraction of its length (NAB's 10%
// convention), shared equally by the anomalies.
constexpr double kWindowFraction = 0.10;

// NAB's scaled sigmoid: ~ +1 well left of the window end, 0 at the
// window end, -> -1 far to the right.
double ScaledSigmoid(double y) { return 2.0 / (1.0 + std::exp(5.0 * y)) - 1.0; }

struct Window {
  double begin = 0.0;  // fractional bounds to honor fractional widths
  double end = 0.0;

  bool contains(double pos) const { return pos >= begin && pos <= end; }
  double width() const { return std::max(1.0, end - begin); }
};

}  // namespace

NabProfile NabStandardProfile() { return {1.0, 0.11, 1.0}; }
NabProfile NabRewardLowFpProfile() { return {1.0, 0.22, 1.0}; }
NabProfile NabRewardLowFnProfile() { return {1.0, 0.11, 2.0}; }

Result<NabScore> ComputeNabScore(const std::vector<AnomalyRegion>& anomalies_in,
                                 const std::vector<std::size_t>& detections,
                                 std::size_t series_length,
                                 const NabConfig& config) {
  if (series_length == 0) {
    return Status::InvalidArgument("series_length must be positive");
  }
  for (std::size_t d : detections) {
    if (d >= series_length) {
      return Status::InvalidArgument("detection index " + std::to_string(d) +
                                     " out of range");
    }
  }
  const std::vector<AnomalyRegion> anomalies = NormalizeRegions(anomalies_in);

  // Build NAB windows: centered on each anomaly, total window budget =
  // kWindowFraction * series_length spread over the anomalies.
  std::vector<Window> windows;
  if (!anomalies.empty()) {
    const double per_window =
        kWindowFraction * static_cast<double>(series_length) /
        static_cast<double>(anomalies.size());
    for (const AnomalyRegion& a : anomalies) {
      const double center =
          0.5 * (static_cast<double>(a.begin) + static_cast<double>(a.end));
      Window w;
      w.begin = std::max(0.0, center - per_window / 2.0);
      w.end = std::min(static_cast<double>(series_length - 1),
                       center + per_window / 2.0);
      // Ensure the window covers at least the labeled region itself.
      w.begin = std::min(w.begin, static_cast<double>(a.begin));
      w.end = std::max(w.end, static_cast<double>(a.end > 0 ? a.end - 1 : 0));
      windows.push_back(w);
    }
    // When the per-anomaly budget makes adjacent windows overlap, NAB
    // merges them into one (the reference implementation does the same
    // while building its window list). Without the merge, a detection
    // in the overlap credits only the first window by scan order and
    // the second is double-charged as a miss. Window begins are
    // nondecreasing (anomalies are normalized), so one forward pass
    // suffices.
    std::vector<Window> merged;
    for (const Window& w : windows) {
      if (!merged.empty() && w.begin <= merged.back().end) {
        merged.back().end = std::max(merged.back().end, w.end);
      } else {
        merged.push_back(w);
      }
    }
    windows = std::move(merged);
  }

  NabScore score;
  score.total_windows = windows.size();

  std::vector<std::size_t> sorted = detections;
  std::sort(sorted.begin(), sorted.end());

  std::vector<bool> window_hit(windows.size(), false);
  double raw = 0.0;
  for (std::size_t d : sorted) {
    const double pos = static_cast<double>(d);
    // Find a containing window.
    std::size_t in_window = windows.size();
    for (std::size_t w = 0; w < windows.size(); ++w) {
      if (windows[w].contains(pos)) {
        in_window = w;
        break;
      }
    }
    if (in_window < windows.size()) {
      if (window_hit[in_window]) continue;  // only first detection counts
      window_hit[in_window] = true;
      ++score.detected_windows;
      // Relative position: -1 at the window's left edge, 0 at the right.
      const Window& w = windows[in_window];
      const double y = (pos - w.end) / w.width();
      raw += config.profile.tp_weight * ScaledSigmoid(y);
    } else {
      ++score.false_positives;
      // Penalty relative to the closest preceding window; saturates to
      // -fp_weight when no window precedes or it is far away.
      double y = 10.0;  // far right => sigmoid ~ -1
      for (const Window& w : windows) {
        if (w.end <= pos) {
          y = std::min(y, (pos - w.end) / w.width());
        }
      }
      raw += config.profile.fp_weight * ScaledSigmoid(std::max(y, 1e-3));
    }
  }
  for (std::size_t w = 0; w < windows.size(); ++w) {
    if (!window_hit[w]) raw -= config.profile.fn_weight;
  }
  score.raw = raw;

  // Normalization against the null (detect nothing) and perfect
  // (earliest possible detection in every window, no FPs) detectors.
  const double null_raw = -config.profile.fn_weight *
                          static_cast<double>(windows.size());
  const double perfect_raw = config.profile.tp_weight * ScaledSigmoid(-1.0) *
                             static_cast<double>(windows.size());
  const double denom = perfect_raw - null_raw;
  score.normalized = denom <= 0.0 ? 0.0 : 100.0 * (raw - null_raw) / denom;
  return score;
}

}  // namespace tsad
