#include "detectors/oneliner.h"

#include <algorithm>
#include <sstream>
#include <utility>

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

// The margin (lhs - rhs) in the diff domain, length n-1. Recomputes
// every track per call; the triviality sweep reads OneLinerMarginCache
// views instead.
std::vector<double> DiffDomainMargin(const Series& series,
                                     const OneLinerParams& params) {
  std::vector<double> d = Diff(series);
  if (params.use_abs) d = Abs(std::move(d));
  const std::size_t k = std::max<std::size_t>(1, params.k);
  std::vector<double> mm, ms;
  if (params.use_movmean) mm = MovMean(d, k);
  if (params.c != 0.0) ms = MovStd(d, k);
  const OneLinerMarginView view{d.data(), mm.data(), ms.data(), d.size(),
                                params};
  std::vector<double> margin(view.size);
  for (std::size_t j = 0; j < view.size; ++j) margin[j] = view[j];
  return margin;
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
  // Index 0 (no diff predecessor) gets the minimum margin so it can
  // never look anomalous.
  const std::vector<double> margin = DiffDomainMargin(series, params);
  return PadLeft(margin, 1, *std::min_element(margin.begin(), margin.end()));
}

OneLinerMarginCache::OneLinerMarginCache(const Series& series) {
  if (series.size() < 2) return;
  lhs_[0].d = Diff(series);
  lhs_[1].d = Abs(lhs_[0].d);
}

const double* OneLinerMarginCache::Window(Lhs& lhs, std::size_t k,
                                          bool movstd) {
  if (lhs.sums.empty()) {
    lhs.sums.assign(1, 0.0L);
    lhs.sq.assign(1, 0.0L);
    AppendPrefixSums(lhs.d.data(), lhs.d.size(), &lhs.sums, &lhs.sq);
  }
  auto it = std::find_if(lhs.windows.begin(), lhs.windows.end(),
                         [k](const Windows& w) { return w.k == k; });
  if (it == lhs.windows.end()) it = lhs.windows.insert(it, Windows{k, {}, {}});
  std::vector<double>& track = movstd ? it->movstd : it->movmean;
  if (track.empty()) {
    track = movstd ? MovStdFromSums(lhs.sums, lhs.sq, k)
                   : MovMeanFromSums(lhs.sums, k);
    ++stats_.window_misses;
  } else {
    ++stats_.window_hits;
  }
  return track.data();
}

OneLinerMarginView OneLinerMarginCache::View(const OneLinerParams& params) {
  Lhs& lhs = lhs_[params.use_abs ? 1 : 0];
  OneLinerMarginView view{lhs.d.data(), nullptr, nullptr, lhs.d.size(),
                          params};
  if (view.size == 0) return view;
  const std::size_t k = std::max<std::size_t>(1, params.k);
  if (params.use_movmean) view.movmean = Window(lhs, k, /*movstd=*/false);
  if (params.c != 0.0) view.movstd = Window(lhs, k, /*movstd=*/true);
  return view;
}

Result<std::vector<double>> OneLinerDetector::Score(
    const Series& series, std::size_t /*train_length*/) const {
  return OneLinerMargin(series, params_);
}

}  // namespace tsad
