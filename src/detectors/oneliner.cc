#include "detectors/oneliner.h"

#include <algorithm>
#include <cmath>
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

void OneLinerMarginCache::Reset(const Series& series) {
  const std::size_t n = series.size() < 2 ? 0 : series.size() - 1;
  Lhs& diff = lhs_[0];
  Lhs& abs = lhs_[1];
  diff.d.resize(n);
  abs.d.resize(n);
  for (std::size_t j = 0; j < n; ++j) {  // Diff(series) and its Abs
    diff.d[j] = series[j + 1] - series[j];
    abs.d[j] = std::fabs(diff.d[j]);
  }
  diff.summed = abs.summed = false;
  used_windows_ = 0;
}

OneLinerMarginView OneLinerMarginCache::View(const OneLinerParams& params) {
  const std::size_t track = params.use_abs ? 1 : 0;
  Lhs& lhs = lhs_[track];
  const std::size_t n = lhs.d.size();
  OneLinerMarginView view{lhs.d.data(), nullptr, nullptr, n, params};
  if (n == 0 || !params.uses_window()) return view;
  const std::size_t k = std::max<std::size_t>(1, params.k);
  std::size_t slot = 0;
  while (slot < used_windows_ &&
         (windows_[slot].lhs != track || windows_[slot].k != k)) {
    ++slot;
  }
  if (slot == used_windows_) {
    if (!lhs.summed) {
      lhs.sums.assign(1, 0.0L);
      lhs.sq.assign(1, 0.0L);
      lhs.sums.reserve(n + 1);
      lhs.sq.reserve(n + 1);
      AppendPrefixSums(lhs.d.data(), n, &lhs.sums, &lhs.sq);
      lhs.summed = true;
    }
    if (slot == windows_.size()) windows_.emplace_back();
    ++used_windows_;
    Windows& w = windows_[slot];
    w.lhs = track;
    w.k = k;
    if (w.movmean.size() < n) {
      w.movmean.resize(n);
      w.movstd.resize(n);
    }
    const std::size_t blocks = (n + kBlock - 1) / kBlock;
    w.mean_filled.assign(blocks, 0);
    w.std_filled.assign(blocks, 0);
  }
  view.movmean = windows_[slot].movmean.data();
  view.movstd = windows_[slot].movstd.data();
  view.cache = this;
  view.slot = slot;
  return view;
}

void OneLinerMarginCache::Fill(std::size_t slot, const OneLinerParams& params,
                               std::size_t lo, std::size_t hi) {
  if (lo >= hi) return;
  Windows& w = windows_[slot];
  const Lhs& lhs = lhs_[w.lhs];
  for (std::size_t block = lo / kBlock; block * kBlock < hi; ++block) {
    const std::size_t begin = block * kBlock;
    const std::size_t end = std::min(lhs.d.size(), begin + kBlock);
    if (params.use_movmean) {
      if (w.mean_filled[block]) {
        ++stats_.block_hits;
      } else {
        MovMeanFromSums(lhs.sums, w.k, begin, end, w.movmean.data());
        w.mean_filled[block] = 1;
        ++stats_.block_misses;
      }
    }
    if (params.c != 0.0) {
      if (w.std_filled[block]) {
        ++stats_.block_hits;
      } else {
        MovStdFromSums(lhs.sums, lhs.sq, w.k, begin, end, w.movstd.data());
        w.std_filled[block] = 1;
        ++stats_.block_misses;
      }
    }
  }
}

Result<std::vector<double>> OneLinerDetector::Score(
    const Series& series, std::size_t /*train_length*/) const {
  return OneLinerMargin(series, params_);
}

}  // namespace tsad
