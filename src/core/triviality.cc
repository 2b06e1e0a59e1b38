#include "core/triviality.h"

#include <algorithm>
#include <array>
#include <limits>

#include "common/parallel.h"

namespace tsad {

namespace {

// The forbidden points that rejected the latest candidates of a
// series, which the sweep tests before its ascending scan.
constexpr std::size_t kRememberedPoints = 4;

// Everything the b sweep derives from (series, slop) alone, hoisted
// out of the (k, c) grid: the sweep runs once per candidate, but the
// allowed mask and per-region index bounds are identical for all of
// them. It also carries the points that rejected the series' latest
// candidates from one sweep to the next. The sweep below visits the
// indices the frozen oracle's scans (tests/core/triviality_oracle.cc)
// visit, in the same order, so it folds the same doubles through the
// same max/min chain — bit-identical solvability, b, and headroom.
struct ExactSweepContext {
  std::vector<uint8_t> allowed;  // per series index: may it be flagged?
  bool any_forbidden = false;    // some index i >= 1 is not allowed
  std::vector<std::pair<std::size_t, std::size_t>> region_bounds;  // [lo, hi)
  // The last kRememberedPoints distinct forbidden series indices that
  // rejected a candidate of this series, newest first.
  std::array<std::size_t, kRememberedPoints> rejecters{};
  std::size_t num_rejecters = 0;
};

// Points `ctx` at (series, slop), reusing its buffers. Point i may be
// flagged iff it lies within `slop` of some ground-truth region.
void ResetSweepContext(const LabeledSeries& series, std::size_t slop,
                       ExactSweepContext& ctx) {
  // Index 0 has no diff predecessor, so it carries no margin: region
  // bounds and the forbidden check start at index 1.
  ctx.allowed.assign(series.length(), 0);
  ctx.region_bounds.clear();
  for (const AnomalyRegion& r : series.anomalies()) {
    const std::size_t lo = r.begin > slop ? r.begin - slop : 0;
    const std::size_t hi = std::min(series.length(), r.end + slop);
    for (std::size_t i = lo; i < hi; ++i) ctx.allowed[i] = 1;
    ctx.region_bounds.emplace_back(std::max<std::size_t>(1, lo), hi);
  }
  ctx.any_forbidden = std::find(ctx.allowed.begin() + 1, ctx.allowed.end(),
                                uint8_t{0}) != ctx.allowed.end();
  ctx.num_rejecters = 0;
}

// Puts series index `i` first among the remembered rejecters, dropping
// the oldest when all kRememberedPoints slots are taken.
void RememberRejecter(ExactSweepContext& ctx, std::size_t i) {
  const auto first = ctx.rejecters.begin();
  auto it = std::find(first, first + ctx.num_rejecters, i);
  if (it == first + ctx.num_rejecters) {
    if (ctx.num_rejecters < kRememberedPoints) ++ctx.num_rejecters;
    it = first + ctx.num_rejecters - 1;  // a free slot or the oldest
  }
  std::rotate(first, it, it + 1);
  *first = i;
}

// Decides solvability with an exact b sweep over a candidate's margin
// with b = 0 (so margin > b is the one-liner's predicate with offset
// b), read in place: series index i holds margin[i - 1]. Fills `*b_out`
// and `*headroom_out` when solvable.
bool ExactBSweepWithContext(ExactSweepContext& ctx,
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
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double weakest_region = kInf;
  for (const auto& [lo, hi] : ctx.region_bounds) {
    margin.Fill(lo - 1, hi - 1);
    double region_best = -kInf;
    for (std::size_t i = lo; i < hi; ++i) {
      region_best = std::max(region_best, margin[i - 1]);
    }
    weakest_region = std::min(weakest_region, region_best);
  }

  // The points that rejected this series' latest candidates usually
  // reject this one too. Where one does, the scan below would reject at
  // or before it: its forbidden_max there is at least
  // std::max(-inf, margin), which skips a NaN margin as the scan does.
  for (std::size_t r = 0; r < ctx.num_rejecters; ++r) {
    const std::size_t i = ctx.rejecters[r];
    margin.Fill(i - 1, i);
    if (!(weakest_region > std::max(-kInf, margin[i - 1]))) {
      RememberRejecter(ctx, i);
      return false;
    }
  }

  // One ascending pass, a window block at a time: the largest margin
  // among points that must not fire, and the margin range for the
  // headroom. forbidden_max only grows, so the candidate fails at the
  // first forbidden point that reaches the weakest region.
  double forbidden_max = -kInf;
  double margin_min = kInf;
  double margin_max = -kInf;
  for (std::size_t lo = 0; lo < margin.size;
       lo += OneLinerMarginCache::kBlock) {
    const std::size_t hi =
        std::min(margin.size, lo + OneLinerMarginCache::kBlock);
    margin.Fill(lo, hi);
    for (std::size_t j = lo; j < hi; ++j) {
      const double m = margin[j];
      if (!ctx.allowed[j + 1]) {
        forbidden_max = std::max(forbidden_max, m);
        if (!(weakest_region > forbidden_max)) {
          RememberRejecter(ctx, j + 1);
          return false;
        }
      }
      margin_min = std::min(margin_min, m);
      margin_max = std::max(margin_max, m);
    }
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

// One series' search state: its sweep context and margin cache. A pool
// task keeps one across its series, so the search stops allocating
// once it has met the task's longest series.
struct SeriesSearch {
  ExactSweepContext ctx;
  OneLinerMarginCache cache;

  void Reset(const LabeledSeries& series, std::size_t slop) {
    ResetSweepContext(series, slop, ctx);
    cache.Reset(series.values());
  }
};

// The memoized grid search for one form: margins are read in place
// from the shared OneLinerMarginCache (diff tracks, prefix sums and
// per-k window blocks computed once for the whole grid) and the b sweep
// uses the shared context. Candidate order, early exit, and
// best-selection are exactly the frozen oracle's.
TrivialitySolution SolveWithFormCached(SeriesSearch& search,
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
    if (!ExactBSweepWithContext(search.ctx, search.cache.View(base), &b,
                                &headroom)) {
      return;
    }
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

// FindOneLiner on a reused search state. One context and margin cache
// serve all four forms: the (series, slop) precomputation is
// form-independent, and the two lhs tracks plus their per-k windows are
// shared between the threshold and the adaptive form of each family.
TrivialitySolution FindOneLinerWith(SeriesSearch& search,
                                    const LabeledSeries& series,
                                    const OneLinerSearchSpace& space,
                                    const SolveCriteria& criteria) {
  if (series.length() < 3) return {};
  search.Reset(series, criteria.slop);
  static constexpr OneLinerForm kOrder[] = {
      OneLinerForm::kEq3, OneLinerForm::kEq4, OneLinerForm::kEq5,
      OneLinerForm::kEq6};
  for (OneLinerForm form : kOrder) {
    TrivialitySolution s = SolveWithFormCached(search, form, space, criteria);
    if (s.solved) return s;
  }
  return {};
}

}  // namespace

TrivialitySolution SolveWithForm(const LabeledSeries& series,
                                 OneLinerForm form,
                                 const OneLinerSearchSpace& space,
                                 const SolveCriteria& criteria) {
  if (series.length() < 3) return {};
  SeriesSearch search;
  search.Reset(series, criteria.slop);
  return SolveWithFormCached(search, form, space, criteria);
}

TrivialitySolution FindOneLiner(const LabeledSeries& series,
                                const OneLinerSearchSpace& space,
                                const SolveCriteria& criteria) {
  SeriesSearch search;
  return FindOneLinerWith(search, series, space, criteria);
}

TrivialityReport AnalyzeTriviality(
    const std::vector<const BenchmarkDataset*>& datasets) {
  // The brute force is embarrassingly parallel per series: flatten the
  // (dataset, series) pairs, search them across the pool, then fold the
  // per-series solutions into the report serially and in order — the
  // report is bit-identical at every thread count. Each task searches
  // kSeriesPerTask consecutive series with one reused search state.
  constexpr std::size_t kSeriesPerTask = 64;
  std::vector<const LabeledSeries*> flat;
  for (const BenchmarkDataset* dataset : datasets) {
    for (const LabeledSeries& s : dataset->series) flat.push_back(&s);
  }

  std::vector<TrivialitySolution> solved(flat.size());
  const auto search_range = [&](std::size_t begin, std::size_t end) {
    SeriesSearch search;
    for (std::size_t i = begin; i < end; ++i) {
      solved[i] = FindOneLinerWith(search, *flat[i], {}, {});
    }
  };
  const std::size_t tasks = (flat.size() + kSeriesPerTask - 1) / kSeriesPerTask;
  const Status status = ParallelFor(0, tasks, [&](std::size_t t) {
    search_range(t * kSeriesPerTask,
                 std::min(flat.size(), (t + 1) * kSeriesPerTask));
    return Status::OK();
  });
  if (!status.ok()) {
    // The search cannot fail; only a contained worker exception (e.g.
    // bad_alloc) lands here. Recompute inline rather than report junk.
    search_range(0, flat.size());
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
