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
// out of the (k, c) grid: the sweep runs once per candidate margin, but
// the forbidden-index list and per-region index bounds are identical
// for all of them. The stored indices are exactly the indices the
// per-candidate scans of the frozen oracle (tests/core/
// triviality_oracle.cc) visit, in the same order, so the sweep below
// folds the same doubles through the same max/min chain — bit-identical
// solvability, b, and headroom.
struct ExactSweepContext {
  std::size_t margin_length = 0;  // == series.length(), the padded margin size
  std::vector<std::size_t> forbidden;  // i >= 1 with allowed[i] == 0
  std::vector<std::pair<std::size_t, std::size_t>> region_bounds;  // [lo, hi)
};

ExactSweepContext BuildSweepContext(const LabeledSeries& series,
                                    std::size_t slop) {
  ExactSweepContext ctx;
  ctx.margin_length = series.length();
  const std::vector<uint8_t> allowed = AllowedMask(series, slop);
  for (std::size_t i = 1; i < allowed.size(); ++i) {  // index 0 is padding
    if (!allowed[i]) ctx.forbidden.push_back(i);
  }
  for (const AnomalyRegion& r : series.anomalies()) {
    const std::size_t lo = std::max<std::size_t>(1, r.begin > slop
                                                        ? r.begin - slop
                                                        : 0);
    const std::size_t hi = std::min(series.length(), r.end + slop);
    ctx.region_bounds.emplace_back(lo, hi);
  }
  return ctx;
}

// Decides solvability with an exact b sweep over a margin track
// computed with b = 0 (so margin > b is the one-liner's predicate with
// offset b); fills `b_out` and `headroom_out` when solvable.
bool ExactBSweepWithContext(const ExactSweepContext& ctx,
                            const std::vector<double>& margin, double* b_out,
                            double* headroom_out) {
  if (ctx.region_bounds.empty()) return false;  // no labeled anomalies
  // Degenerate case: the labeled regions plus slop cover every index,
  // so nothing is forbidden and ANY threshold would "solve" the series
  // with b = -inf and infinite headroom. A one-liner that may flag
  // everywhere is not a meaningful solution.
  if (ctx.forbidden.empty()) return false;

  // Largest margin among points that must not fire.
  double forbidden_max = -std::numeric_limits<double>::infinity();
  for (std::size_t i : ctx.forbidden) {
    forbidden_max = std::max(forbidden_max, margin[i]);
  }

  // Smallest per-region best margin: every region must contain (within
  // slop) at least one point whose margin strictly exceeds b.
  double weakest_region = std::numeric_limits<double>::infinity();
  for (const auto& [lo, hi] : ctx.region_bounds) {
    double region_best = -std::numeric_limits<double>::infinity();
    for (std::size_t i = lo; i < hi; ++i) {
      region_best = std::max(region_best, margin[i]);
    }
    weakest_region = std::min(weakest_region, region_best);
  }

  if (!(weakest_region > forbidden_max)) return false;
  // Place b in the middle of the gap.
  const double b = 0.5 * (weakest_region + forbidden_max);
  if (b_out != nullptr) *b_out = b;
  if (headroom_out != nullptr) {
    // Headroom: the separating gap as a fraction of the full margin
    // dynamic range. A decisive spike solution separates by a large
    // fraction of the range; a lucky noise maximum by a sliver.
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

// The memoized grid search for one form: margins come from the shared
// OneLinerMarginCache (diff tracks and per-k windows computed once for
// the whole grid) and the b sweep from the shared context. Candidate
// order, early exit, and best-selection are exactly the frozen oracle's.
TrivialitySolution SolveWithFormCached(const LabeledSeries& series,
                                       const ExactSweepContext& ctx,
                                       OneLinerMarginCache& cache,
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
    OneLinerParams zero_b = base;
    zero_b.b = 0.0;
    const std::vector<double> margin = cache.Margin(zero_b);
    double b = 0.0, headroom = 0.0;
    if (!ExactBSweepWithContext(ctx, margin, &b, &headroom)) return;
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
    for (double c : space.cs) {
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
  return SolveWithFormCached(series, ctx, cache, form, space, criteria);
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
        SolveWithFormCached(series, ctx, cache, form, space, criteria);
    if (s.solved) return s;
  }
  return {};
}

TrivialityReport AnalyzeTriviality(
    const std::vector<const BenchmarkDataset*>& datasets,
    const OneLinerSearchSpace& space, const SolveCriteria& criteria) {
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
            return FindOneLiner(*flat[i], space, criteria);
          });
  std::vector<TrivialitySolution> solved;
  if (solutions.ok()) {
    solved = std::move(*solutions);
  } else {
    // FindOneLiner cannot fail; only a contained worker exception (e.g.
    // bad_alloc) lands here. Recompute inline rather than report junk.
    solved.reserve(flat.size());
    for (const LabeledSeries* s : flat) {
      solved.push_back(FindOneLiner(*s, space, criteria));
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
