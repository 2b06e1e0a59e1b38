#include "core/triviality.h"

#include <algorithm>
#include <limits>

#include "common/parallel.h"

namespace tsad {

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

// Everything the b sweep derives from (series, slop) alone, hoisted
// out of the (k, c) grid: the sweep runs once per candidate, but the
// allowed mask and per-region index bounds are identical for all of
// them. The sweep below visits the indices the frozen oracle's scans
// (tests/core/triviality_oracle.cc) visit, in the same order, so it
// folds the same doubles through the same max/min chain — bit-identical
// solvability, b, and headroom.
struct ExactSweepContext {
  std::vector<uint8_t> allowed;  // per series index, from AllowedMask
  bool any_forbidden = false;    // some index i >= 1 is not allowed
  std::vector<std::pair<std::size_t, std::size_t>> region_bounds;  // [lo, hi)
};

ExactSweepContext BuildSweepContext(const LabeledSeries& series,
                                    std::size_t slop) {
  ExactSweepContext ctx;
  ctx.allowed = AllowedMask(series, slop);
  // Index 0 has no diff predecessor, so it carries no margin.
  ctx.any_forbidden = std::find(ctx.allowed.begin() + 1, ctx.allowed.end(),
                                uint8_t{0}) != ctx.allowed.end();
  for (const AnomalyRegion& r : series.anomalies()) {
    const std::size_t lo = std::max<std::size_t>(1, r.begin > slop
                                                        ? r.begin - slop
                                                        : 0);
    const std::size_t hi = std::min(series.length(), r.end + slop);
    ctx.region_bounds.emplace_back(lo, hi);
  }
  return ctx;
}

// Decides solvability with an exact b sweep over a candidate's margin
// with b = 0 (so margin > b is the one-liner's predicate with offset
// b), read in place: series index i holds margin[i - 1]. Fills `*b_out`
// and `*headroom_out` when solvable.
bool ExactBSweepWithContext(const ExactSweepContext& ctx,
                            const OneLinerMarginView& margin, double* b_out,
                            double* headroom_out) {
  if (ctx.region_bounds.empty()) return false;  // no labeled anomalies
  // Degenerate case: the labeled regions plus slop cover every index,
  // so nothing is forbidden and ANY threshold would "solve" the series
  // with b = -inf and infinite headroom. A one-liner that may flag
  // everywhere is not a meaningful solution.
  if (!ctx.any_forbidden) return false;

  // Smallest per-region best margin: every region must contain (within
  // slop) at least one point whose margin strictly exceeds b.
  double weakest_region = std::numeric_limits<double>::infinity();
  for (const auto& [lo, hi] : ctx.region_bounds) {
    double region_best = -std::numeric_limits<double>::infinity();
    for (std::size_t i = lo; i < hi; ++i) {
      region_best = std::max(region_best, margin[i - 1]);
    }
    weakest_region = std::min(weakest_region, region_best);
  }

  // One ascending pass: the largest margin among points that must not
  // fire, and the margin range for the headroom. forbidden_max only
  // grows, so the candidate fails at the first forbidden point that
  // reaches the weakest region.
  double forbidden_max = -std::numeric_limits<double>::infinity();
  double margin_min = std::numeric_limits<double>::infinity();
  double margin_max = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 1; i <= margin.size; ++i) {
    const double m = margin[i - 1];
    if (!ctx.allowed[i]) {
      forbidden_max = std::max(forbidden_max, m);
      if (!(weakest_region > forbidden_max)) return false;
    }
    margin_min = std::min(margin_min, m);
    margin_max = std::max(margin_max, m);
  }

  // Place b in the middle of the gap.
  *b_out = 0.5 * (weakest_region + forbidden_max);
  // Headroom: the separating gap as a fraction of the full margin
  // dynamic range. A decisive spike solution separates by a large
  // fraction of the range; a lucky noise maximum by a sliver. The range
  // needs no floor: margin_max >= weakest_region > forbidden_max >=
  // margin_min, so it is positive in any units (unless every forbidden
  // margin is NaN: then forbidden_max stays -inf and the gap is inf).
  *headroom_out = (weakest_region - forbidden_max) / (margin_max - margin_min);
  return true;
}

// The memoized grid search for one form: margins are read in place
// from the shared OneLinerMarginCache (diff tracks, prefix sums and
// per-k windows computed once for the whole grid) and the b sweep uses
// the shared context. Candidate order, early exit, and best-selection
// are exactly the frozen oracle's.
TrivialitySolution SolveWithFormCached(const ExactSweepContext& ctx,
                                       OneLinerMarginCache& cache,
                                       OneLinerForm form,
                                       const OneLinerSearchSpace& space,
                                       const SolveCriteria& criteria) {
  TrivialitySolution best;
  const bool use_abs =
      form == OneLinerForm::kEq3 || form == OneLinerForm::kEq4;
  const bool adaptive =
      form == OneLinerForm::kEq4 || form == OneLinerForm::kEq6;

  // Every candidate has b = 0, the margin the sweep expects.
  auto consider = [&](const OneLinerParams& base) {
    double b = 0.0, headroom = 0.0;
    if (!ExactBSweepWithContext(ctx, cache.View(base), &b, &headroom)) return;
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

}  // namespace

TrivialitySolution SolveWithForm(const LabeledSeries& series,
                                 OneLinerForm form,
                                 const OneLinerSearchSpace& space,
                                 const SolveCriteria& criteria) {
  if (series.length() < 3) return {};
  const ExactSweepContext ctx = BuildSweepContext(series, criteria.slop);
  OneLinerMarginCache cache(series.values());
  return SolveWithFormCached(ctx, cache, form, space, criteria);
}

TrivialitySolution FindOneLiner(const LabeledSeries& series,
                                const OneLinerSearchSpace& space,
                                const SolveCriteria& criteria) {
  if (series.length() < 3) return {};
  // One context + margin cache serves all four forms: the (series,
  // slop) precomputation is form-independent, and the two lhs tracks
  // plus their per-k windows are shared between the threshold and the
  // adaptive form of each family.
  const ExactSweepContext ctx = BuildSweepContext(series, criteria.slop);
  OneLinerMarginCache cache(series.values());
  static constexpr OneLinerForm kOrder[] = {
      OneLinerForm::kEq3, OneLinerForm::kEq4, OneLinerForm::kEq5,
      OneLinerForm::kEq6};
  for (OneLinerForm form : kOrder) {
    TrivialitySolution s =
        SolveWithFormCached(ctx, cache, form, space, criteria);
    if (s.solved) return s;
  }
  return {};
}

TrivialityReport AnalyzeTriviality(
    const std::vector<const BenchmarkDataset*>& datasets) {
  // The brute force is embarrassingly parallel per series: flatten the
  // (dataset, series) pairs, search them across the pool, then fold the
  // per-series solutions into the report serially and in order — the
  // report is bit-identical at every thread count.
  std::vector<const LabeledSeries*> flat;
  for (const BenchmarkDataset* dataset : datasets) {
    for (const LabeledSeries& s : dataset->series) flat.push_back(&s);
  }

  Result<std::vector<TrivialitySolution>> solutions =
      ParallelMap<TrivialitySolution>(
          flat.size(), [&](std::size_t i) -> Result<TrivialitySolution> {
            return FindOneLiner(*flat[i]);
          });
  std::vector<TrivialitySolution> solved;
  if (solutions.ok()) {
    solved = std::move(*solutions);
  } else {
    // FindOneLiner cannot fail; only a contained worker exception (e.g.
    // bad_alloc) lands here. Recompute inline rather than report junk.
    solved.reserve(flat.size());
    for (const LabeledSeries* s : flat) {
      solved.push_back(FindOneLiner(*s));
    }
  }

  TrivialityReport report;
  std::size_t flat_index = 0;
  for (const BenchmarkDataset* dataset : datasets) {
    DatasetTriviality row;
    row.dataset_name = dataset->name;
    row.total = dataset->size();
    for (const LabeledSeries& s : dataset->series) {
      SeriesTriviality record;
      record.series_name = s.name();
      record.solution = solved[flat_index++];
      if (record.solution.solved) {
        ++row.solved;
        ++row.solved_by_form[static_cast<int>(record.solution.params.form())];
      }
      report.series.push_back(std::move(record));
    }
    report.total += row.total;
    report.solved += row.solved;
    report.datasets.push_back(std::move(row));
  }
  return report;
}

}  // namespace tsad
