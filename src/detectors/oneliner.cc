#include "detectors/oneliner.h"

#include <algorithm>
#include <sstream>

#include "common/vector_ops.h"

namespace tsad {

std::string_view OneLinerFormName(OneLinerForm form) {
  switch (form) {
    case OneLinerForm::kEq3:
      return "(3)";
    case OneLinerForm::kEq4:
      return "(4)";
    case OneLinerForm::kEq5:
      return "(5)";
    case OneLinerForm::kEq6:
      return "(6)";
  }
  return "?";
}

std::string OneLinerParams::ToMatlab() const {
  const std::string lhs = use_abs ? "abs(diff(TS))" : "diff(TS)";
  std::ostringstream out;
  out << lhs << " > ";
  bool need_plus = false;
  if (use_movmean) {
    out << "movmean(" << lhs << "," << k << ")";
    need_plus = true;
  }
  if (c != 0.0) {
    if (need_plus) out << " + ";
    out << c << "*movstd(" << lhs << "," << k << ")";
    need_plus = true;
  }
  if (b != 0.0 || !need_plus) {
    if (need_plus) out << " + ";
    out << b;
  }
  return out.str();
}

namespace {

// The one place the right-hand side is assembled: b, then movmean,
// then c * movstd, each a double addition. Direct, memoized and online
// margins are bit-identical because they all end here with the same
// window moments.
double ComposeMargin(double d, double movmean, double movstd,
                     const OneLinerParams& params) {
  double rhs = params.b;
  if (params.use_movmean) rhs += movmean;
  if (params.c != 0.0) rhs += params.c * movstd;
  return d - rhs;
}

// Margins over precomputed MovMean / MovStd tracks; `mm` / `ms` may be
// null exactly when the predicate does not use them.
std::vector<double> ComposeMargins(const std::vector<double>& d,
                                   const double* mm, const double* ms,
                                   const OneLinerParams& params) {
  const OneLinerParams p = params;  // a local copy stays in registers
  std::vector<double> margin(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    margin[i] = ComposeMargin(d[i], mm != nullptr ? mm[i] : 0.0,
                              ms != nullptr ? ms[i] : 0.0, p);
  }
  return margin;
}

// The margin (lhs - rhs) in the diff domain, length n-1. Recomputes
// every track per call; the triviality sweep uses OneLinerMarginCache
// instead.
std::vector<double> DiffDomainMargin(const Series& series,
                                     const OneLinerParams& params) {
  std::vector<double> d = Diff(series);
  if (params.use_abs) d = Abs(std::move(d));
  const std::size_t k = std::max<std::size_t>(1, params.k);
  std::vector<double> mm, ms;
  if (params.use_movmean) mm = MovMean(d, k);
  if (params.c != 0.0) ms = MovStd(d, k);
  return ComposeMargins(d, params.use_movmean ? mm.data() : nullptr,
                        params.c != 0.0 ? ms.data() : nullptr, params);
}

// Aligns a diff-domain margin to the original series: index 0 (no diff
// predecessor) gets the minimum margin so it can never look anomalous.
std::vector<double> AlignMarginToSeries(const std::vector<double>& margin) {
  const double floor_value =
      margin.empty() ? 0.0 : *std::min_element(margin.begin(), margin.end());
  return PadLeft(margin, 1, floor_value);
}

}  // namespace

double OneLinerMarginAt(const std::vector<double>& d,
                        const std::vector<long double>& sums,
                        const std::vector<long double>& sq, std::size_t j,
                        const OneLinerParams& params) {
  double movmean = 0.0, movstd = 0.0;
  if (params.uses_window()) {
    std::size_t lo, hi;
    CenteredWindow(j, d.size(), std::max<std::size_t>(1, params.k), &lo, &hi);
    if (params.use_movmean) movmean = WindowMean(sums, lo, hi);
    if (params.c != 0.0) movstd = WindowStd(sums, sq, lo, hi);
  }
  return ComposeMargin(d[j], movmean, movstd, params);
}

std::vector<uint8_t> EvaluateOneLiner(const Series& series,
                                      const OneLinerParams& params) {
  std::vector<uint8_t> flags(series.size(), 0);
  if (series.size() < 2) return flags;
  const std::vector<double> margin = DiffDomainMargin(series, params);
  for (std::size_t i = 0; i < margin.size(); ++i) {
    if (margin[i] > 0.0) flags[i + 1] = 1;
  }
  return flags;
}

std::vector<double> OneLinerMargin(const Series& series,
                                   const OneLinerParams& params) {
  if (series.size() < 2) return std::vector<double>(series.size(), 0.0);
  return AlignMarginToSeries(DiffDomainMargin(series, params));
}

OneLinerMarginCache::OneLinerMarginCache(const Series& series)
    : length_(series.size()) {
  if (length_ < 2) return;
  diff_ = Diff(series);
  abs_diff_ = Abs(diff_);
}

const std::vector<double>& OneLinerMarginCache::Track(bool use_abs) const {
  return use_abs ? abs_diff_ : diff_;
}

OneLinerMarginCache::WindowTracks& OneLinerMarginCache::TracksFor(
    bool use_abs, std::size_t k) {
  auto& slot = windows_[use_abs ? 1 : 0];
  for (auto& entry : slot) {
    if (entry.first == k) return entry.second;
  }
  slot.emplace_back(k, WindowTracks{});
  return slot.back().second;
}

const std::vector<double>& OneLinerMarginCache::MovMeanFor(bool use_abs,
                                                           std::size_t k) {
  WindowTracks& tracks = TracksFor(use_abs, k);
  if (!tracks.has_movmean) {
    tracks.movmean = MovMean(Track(use_abs), k);
    tracks.has_movmean = true;
    ++stats_.window_misses;
  } else {
    ++stats_.window_hits;
  }
  return tracks.movmean;
}

const std::vector<double>& OneLinerMarginCache::MovStdFor(bool use_abs,
                                                          std::size_t k) {
  WindowTracks& tracks = TracksFor(use_abs, k);
  if (!tracks.has_movstd) {
    tracks.movstd = MovStd(Track(use_abs), k);
    tracks.has_movstd = true;
    ++stats_.window_misses;
  } else {
    ++stats_.window_hits;
  }
  return tracks.movstd;
}

std::vector<double> OneLinerMarginCache::Margin(const OneLinerParams& params) {
  if (length_ < 2) return std::vector<double>(length_, 0.0);
  const std::vector<double>& d = Track(params.use_abs);
  const std::size_t k = std::max<std::size_t>(1, params.k);
  const double* mm =
      params.use_movmean ? MovMeanFor(params.use_abs, k).data() : nullptr;
  const double* ms =
      params.c != 0.0 ? MovStdFor(params.use_abs, k).data() : nullptr;
  return AlignMarginToSeries(ComposeMargins(d, mm, ms, params));
}

Result<std::vector<double>> OneLinerDetector::Score(
    const Series& series, std::size_t /*train_length*/) const {
  return OneLinerMargin(series, params_);
}

}  // namespace tsad
