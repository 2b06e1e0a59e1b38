#include "triviality_oracle.h"

#include <algorithm>
#include <limits>

namespace tsad {
namespace testing {

namespace {

// Builds the "allowed" mask: point i may be flagged iff it lies within
// `slop` of some ground-truth region.
std::vector<uint8_t> AllowedMask(const LabeledSeries& series,
                                 std::size_t slop) {
  std::vector<uint8_t> allowed(series.length(), 0);
  for (const AnomalyRegion& r : series.anomalies()) {
    const std::size_t lo = r.begin > slop ? r.begin - slop : 0;
    const std::size_t hi = std::min(series.length(), r.end + slop);
    for (std::size_t i = lo; i < hi; ++i) allowed[i] = 1;
  }
  return allowed;
}

// Given the margin track aligned to the original series, decides
// solvability with an exact b sweep; fills `b_out` and `headroom_out`
// when solvable.
bool ExactBSweep(const LabeledSeries& series, const std::vector<double>& margin,
                 std::size_t slop, double* b_out, double* headroom_out) {
  if (series.anomalies().empty()) return false;
  const std::vector<uint8_t> allowed = AllowedMask(series, slop);

  // Largest margin among points that must not fire. (With b above this
  // value no forbidden point fires; margin > b means strictly above.)
  bool has_forbidden = false;
  double forbidden_max = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 1; i < margin.size(); ++i) {  // index 0 is padding
    if (!allowed[i]) {
      has_forbidden = true;
      forbidden_max = std::max(forbidden_max, margin[i]);
    }
  }
  // Degenerate case: the labeled regions plus slop cover every index,
  // so nothing is forbidden, forbidden_max stays -inf and ANY threshold
  // would "solve" the series with b = -inf and infinite headroom. A
  // one-liner that may flag everywhere is not a meaningful solution —
  // reject instead of reporting a fake solve.
  if (!has_forbidden) return false;

  // Smallest per-region best margin. Every region must contain (within
  // slop) at least one point whose margin strictly exceeds b.
  double weakest_region = std::numeric_limits<double>::infinity();
  for (const AnomalyRegion& r : series.anomalies()) {
    const std::size_t lo = std::max<std::size_t>(1, r.begin > slop
                                                        ? r.begin - slop
                                                        : 0);
    const std::size_t hi = std::min(margin.size(), r.end + slop);
    double region_best = -std::numeric_limits<double>::infinity();
    for (std::size_t i = lo; i < hi; ++i) {
      region_best = std::max(region_best, margin[i]);
    }
    weakest_region = std::min(weakest_region, region_best);
  }

  if (!(weakest_region > forbidden_max)) return false;
  // The margin arrays were computed with b = 0, so margin > b is the
  // original predicate with offset b. Place b in the middle of the gap.
  const double b = 0.5 * (weakest_region + forbidden_max);
  if (b_out != nullptr) *b_out = b;
  if (headroom_out != nullptr) {
    // Headroom: the separating gap as a fraction of the full margin
    // dynamic range. A decisive spike solution separates by a large
    // fraction of the range; a lucky noise maximum separates by a
    // sliver.
    double margin_min = std::numeric_limits<double>::infinity();
    double margin_max = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 1; i < margin.size(); ++i) {
      margin_min = std::min(margin_min, margin[i]);
      margin_max = std::max(margin_max, margin[i]);
    }
    const double range = std::max(1e-12, margin_max - margin_min);
    *headroom_out = (weakest_region - forbidden_max) / range;
  }
  return true;
}

// Margin track for a parameter setting with b = 0.
std::vector<double> MarginWithZeroB(const LabeledSeries& series,
                                    OneLinerParams params) {
  params.b = 0.0;
  return OneLinerMargin(series.values(), params);
}

}  // namespace

bool FlagsSolve(const LabeledSeries& series, const std::vector<uint8_t>& flags,
                const SolveCriteria& criteria) {
  if (flags.size() != series.length()) return false;
  if (series.anomalies().empty()) return false;
  const std::vector<uint8_t> allowed = AllowedMask(series, criteria.slop);
  for (std::size_t i = 0; i < flags.size(); ++i) {
    if (flags[i] && !allowed[i]) return false;  // stray false positive
  }
  for (const AnomalyRegion& r : series.anomalies()) {
    const std::size_t lo = r.begin > criteria.slop ? r.begin - criteria.slop
                                                   : 0;
    const std::size_t hi = std::min(flags.size(), r.end + criteria.slop);
    bool hit = false;
    for (std::size_t i = lo; i < hi; ++i) {
      if (flags[i]) {
        hit = true;
        break;
      }
    }
    if (!hit) return false;  // region missed
  }
  return true;
}

TrivialitySolution SolveWithFormDirect(const LabeledSeries& series,
                                       OneLinerForm form,
                                       const OneLinerSearchSpace& space,
                                       const SolveCriteria& criteria) {
  TrivialitySolution best;
  if (series.length() < 3) return best;

  const bool use_abs =
      form == OneLinerForm::kEq3 || form == OneLinerForm::kEq4;
  const bool adaptive =
      form == OneLinerForm::kEq4 || form == OneLinerForm::kEq6;

  auto consider = [&](const OneLinerParams& base) {
    const std::vector<double> margin = MarginWithZeroB(series, base);
    double b = 0.0, headroom = 0.0;
    if (!ExactBSweep(series, margin, criteria.slop, &b, &headroom)) return;
    if (headroom < criteria.min_headroom) return;
    if (!best.solved || headroom > best.headroom) {
      best.solved = true;
      best.params = base;
      best.params.b = b;
      best.headroom = headroom;
    }
  };

  if (!adaptive) {
    OneLinerParams p;
    p.use_abs = use_abs;
    p.use_movmean = false;
    p.c = 0.0;
    consider(p);
    return best;
  }

  for (std::size_t k : space.ks) {
    for (double c : kOneLinerCs) {
      OneLinerParams p;
      p.use_abs = use_abs;
      p.use_movmean = true;
      p.k = k;
      p.c = c;
      consider(p);
      if (best.solved && best.headroom > 0.8) return best;  // good enough
    }
  }
  return best;
}

TrivialitySolution FindOneLinerDirect(const LabeledSeries& series,
                                      const OneLinerSearchSpace& space,
                                      const SolveCriteria& criteria) {
  // The paper's numbering order: simplified thresholds first within
  // each lhs family.
  static constexpr OneLinerForm kOrder[] = {
      OneLinerForm::kEq3, OneLinerForm::kEq4, OneLinerForm::kEq5,
      OneLinerForm::kEq6};
  for (OneLinerForm form : kOrder) {
    TrivialitySolution s = SolveWithFormDirect(series, form, space, criteria);
    if (s.solved) return s;
  }
  return {};
}

}  // namespace testing
}  // namespace tsad
