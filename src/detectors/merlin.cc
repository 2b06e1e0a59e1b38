#include "detectors/merlin.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "detectors/discord.h"
#include "substrates/mp_kernels.h"
#include "substrates/profile_internal.h"

namespace tsad {

Status ValidateMerlinLengths(std::size_t min_length, std::size_t max_length) {
  if (min_length < 4 || min_length > max_length) {
    return Status::InvalidArgument("bad MERLIN length range [" +
                                   std::to_string(min_length) + ", " +
                                   std::to_string(max_length) + "]");
  }
  return Status::OK();
}

namespace {

// MERLIN's range contract: the length range, plus enough subsequences
// at the LARGEST length to make "discord" meaningful. Strictly tighter
// than the self-join's own validation at every length of the range, so
// the ComputeMatrixProfile calls below cannot fail on the shape.
Status ValidateMerlinRange(const Series& series, std::size_t min_length,
                           std::size_t max_length) {
  TSAD_RETURN_IF_ERROR(ValidateMerlinLengths(min_length, max_length));
  // Halving the count instead of doubling max_length is exact and
  // cannot wrap (2 * 2^63 is 0 in a size_t).
  if (NumSubsequences(series.size(), max_length) / 2 < max_length) {
    return Status::InvalidArgument(
        "series too short for MERLIN at max_length " +
        std::to_string(max_length));
  }
  return Status::OK();
}

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Refinement rows per ParallelFor batch. Rows are applied in bound
// order whatever the batch size, so it only trades parallelism against
// rows computed past the stopping point: 4 rows fill a 4-thread pool
// and waste at most 3 rows per length, against the 2-3 rows a length
// needs on the archive recordings and the tens it needs on noise.
constexpr std::size_t kRefineBatch = 4;

// Subsequences per ParallelFor work item of the re-measure pass: each
// costs one O(m) dot, so 1024 of them (tens of microseconds at m = 64)
// amortize the task hand-off.
constexpr std::size_t kRemeasureChunk = 1024;

// Per-length state: rolling stats (the ComputeWindowStats moments every
// kernel classifies flats from), inverse centered norms (0 = flat) and
// the ascending flat index list.
struct Layer {
  std::size_t m = 0;
  std::size_t count = 0;
  std::size_t exclusion = 0;
  double two_m = 0.0;
  WindowStats stats;
  std::vector<double> inv;
  std::vector<std::size_t> flat_indices;
};

Layer BuildLayer(const Series& x, std::size_t m) {
  Layer layer;
  layer.m = m;
  layer.count = NumSubsequences(x.size(), m);
  layer.exclusion = DefaultSelfJoinExclusion(m);
  layer.two_m = 2.0 * static_cast<double>(m);
  layer.stats = ComputeWindowStats(x, m);
  const double sqrt_m = std::sqrt(static_cast<double>(m));
  layer.inv.resize(layer.count);
  for (std::size_t i = 0; i < layer.count; ++i) {
    if (profile_internal::IsFlat(layer.stats.means[i], layer.stats.stds[i])) {
      layer.inv[i] = 0.0;
      layer.flat_indices.push_back(i);
    } else {
      layer.inv[i] = 1.0 / (layer.stats.stds[i] * sqrt_m);
    }
  }
  return layer;
}

// A flat subsequence's exact NN distance: 0 against another flat,
// sqrt(2m) against anything else.
double FlatDistance(const Layer& layer, std::size_t i) {
  return profile_internal::LowestFlatOutsideExclusion(
             layer.flat_indices, i, layer.exclusion) != kNoNeighbor
             ? 0.0
             : std::sqrt(layer.two_m);
}

// Correlation -> z-normalized distance. The bounds and the refinement
// rows both convert through this one function, and it is monotone, so a
// bound's correlation never below the row's maximum means a bound
// distance never below the row's distance.
double DistanceFromCorr(double corr, double two_m) {
  const double clamped = std::min(1.0, std::max(-1.0, corr));
  const double v = two_m * (1.0 - clamped);
  return std::sqrt(v > 0.0 ? v : 0.0);
}

// The correlation of query i against candidate j exactly as a
// refinement row computes it: pan_cov_row's entries are MpxSeedCov at
// every tier, and the row scales by inv[i] then inv[j]. A flat j gives
// +/-0, i.e. the sqrt(2m) a row charges a flat partner.
double PairCorr(const Series& x, const Layer& layer, std::size_t i,
                std::size_t j) {
  const double* means = layer.stats.means.data();
  return MpxSeedCov(x.data(), means, x.data(), means, i, j, layer.m) *
         layer.inv[i] * layer.inv[j];
}

// Each subsequence's nearest-neighbour candidate and the correlation
// the bound was measured at (kNegInf: no candidate, bound 2 sqrt(m)).
// Sized for min_length; each later length uses a prefix.
struct Carry {
  std::vector<std::size_t> nn;
  std::vector<double> corr;
};

// `j` moved into i's admissible range on its side of i: clipped to the
// last subsequence, then pushed out of the exclusion zone, which grows
// with m. kNoNeighbor when that side has no room.
std::size_t Admissible(const Layer& layer, std::size_t i, std::size_t j) {
  if (j == kNoNeighbor) return kNoNeighbor;
  j = std::min(j, layer.count - 1);
  const std::size_t reach = layer.exclusion + 1;
  if (j > i) {
    return i + reach < layer.count ? std::max(j, i + reach) : kNoNeighbor;
  }
  return i >= reach ? std::min(j, i - reach) : kNoNeighbor;
}

// Every dynamic subsequence re-measures its carried candidate at this
// length. Flats need no bound: their distance is exact.
Status Remeasure(const Series& x, const Layer& layer, Carry* carry) {
  const std::size_t chunks =
      (layer.count + kRemeasureChunk - 1) / kRemeasureChunk;
  return ParallelFor(0, chunks, [&](std::size_t c) -> Status {
    const std::size_t end =
        std::min(layer.count, (c + 1) * kRemeasureChunk);
    for (std::size_t i = c * kRemeasureChunk; i < end; ++i) {
      if (layer.inv[i] == 0.0) continue;
      const std::size_t j = Admissible(layer, i, carry->nn[i]);
      carry->nn[i] = j;
      carry->corr[i] = j == kNoNeighbor ? kNegInf : PairCorr(x, layer, i, j);
    }
    return Status::OK();
  });
}

// Candidates from the one self-join at this length, re-measured so every
// bound is a value a refinement row computes (no allowance for the
// recurrence's rounding).
Status Refresh(const Series& x, const Layer& layer, Carry* carry) {
  TSAD_ASSIGN_OR_RETURN(const MatrixProfile mp,
                        ComputeMatrixProfile(x, layer.m));
  std::copy(mp.indices.begin(), mp.indices.end(), carry->nn.begin());
  return Remeasure(x, layer, carry);
}

// Subsequence i tries candidate j, keeping the closer pair.
void TryCandidate(const Series& x, const Layer& layer, std::size_t i,
                  std::size_t j, Carry* carry) {
  if (j == carry->nn[i] || layer.inv[i] == 0.0 || j >= layer.count) return;
  if ((i > j ? i - j : j - i) <= layer.exclusion) return;
  const double corr = PairCorr(x, layer, i, j);
  if (corr > carry->corr[i]) {
    carry->corr[i] = corr;
    carry->nn[i] = j;
  }
}

// Neighbouring subsequences have neighbouring nearest neighbours, so
// i tries the diagonal continuations of its neighbours' candidates —
// nn[i-1] + 1 on a forward pass, nn[i+1] - 1 on a backward one. A good
// pair travels its whole diagonal in one pass.
void Propagate(const Series& x, const Layer& layer, Carry* carry) {
  const std::vector<std::size_t>& nn = carry->nn;
  for (std::size_t i = 1; i < layer.count; ++i) {
    if (nn[i - 1] != kNoNeighbor) {
      TryCandidate(x, layer, i, nn[i - 1] + 1, carry);
    }
  }
  for (std::size_t i = layer.count - 1; i-- > 0;) {
    if (nn[i + 1] != kNoNeighbor && nn[i + 1] > 0) {
      TryCandidate(x, layer, i, nn[i + 1] - 1, carry);
    }
  }
}

// Upper bound on the squared distance a refinement row reports for i.
double BoundSq(const Layer& layer, const Carry& carry, std::size_t i) {
  const double d = layer.inv[i] == 0.0
                       ? FlatDistance(layer, i)
                       : DistanceFromCorr(carry.corr[i], layer.two_m);
  return d * d;
}

struct ExactRow {
  double distance = std::numeric_limits<double>::infinity();
  std::size_t neighbor = kNoNeighbor;
};

// Exact NN distance (and neighbor) of the subsequence at `pos`, with
// the m/2 trivial-match exclusion — the measurement DRAG's refinement
// phase makes, via one dispatched DIRECT row of locally-centered
// covariances (mp_kernels.h pan_cov_row, the row DistanceProfile also
// reads): each dot is centered, so nothing cancels. Flat cases
// reproduce the SCAMP semantics exactly: flat-flat pairs at 0, mixed
// pairs at sqrt(2m).
ExactRow ExactNn(const Series& x, const Layer& layer, std::size_t pos,
                 PanCovRowFn cov_row, std::vector<double>& scratch) {
  ExactRow row;
  // No admissible partner at all (exclusion swallows the range) stays
  // +inf.
  if (pos <= layer.exclusion && pos + layer.exclusion + 1 >= layer.count) {
    return row;
  }
  const double inv_pos = layer.inv[pos];
  if (inv_pos == 0.0) {
    row.neighbor = profile_internal::LowestFlatOutsideExclusion(
        layer.flat_indices, pos, layer.exclusion);
    row.distance = FlatDistance(layer, pos);
    return row;
  }
  scratch.resize(layer.count);
  PanCovRowArgs args;
  args.series = x.data();
  args.means = layer.stats.means.data();
  args.pos = pos;
  args.m = layer.m;
  args.count = layer.count;
  args.out = scratch.data();
  cov_row(args);
  double best_corr = kNegInf;
  std::size_t best_j = kNoNeighbor;
  std::size_t flat_j = kNoNeighbor;
  for (std::size_t j = 0; j < layer.count; ++j) {
    const std::size_t gap = pos > j ? pos - j : j - pos;
    if (gap <= layer.exclusion) continue;
    if (layer.inv[j] == 0.0) {
      if (flat_j == kNoNeighbor) flat_j = j;
      continue;
    }
    const double corr = scratch[j] * inv_pos * layer.inv[j];
    if (corr > best_corr) {
      best_corr = corr;
      best_j = j;
    }
  }
  // Distance is monotone decreasing in correlation, so the minimum over
  // dynamic partners is the distance of the best correlation; a flat
  // partner competes at exactly sqrt(2m).
  if (flat_j != kNoNeighbor) {
    row.distance = std::sqrt(layer.two_m);
    row.neighbor = flat_j;
  }
  if (best_corr != kNegInf) {
    const double dynamic = DistanceFromCorr(best_corr, layer.two_m);
    if (dynamic < row.distance) {
      row.distance = dynamic;
      row.neighbor = best_j;
    }
  }
  return row;
}

// The refinement scan at one length: exact rows in bound order
// (highest bound first, ties to the lower position), `prev_pos` — the
// previous length's discord, which drifts slowly — first. Distances
// within kPanTieCorrEps tie and the lower position wins, so a row can
// change the answer only while its bound is above best - tie, and
// above best + tie unless it sits at a lower position; the scan stops
// at the first bound below best - tie. Rows run kRefineBatch at a time
// through ParallelFor and are applied in bound order, so the output
// and the rows applied are the same at every thread count. Once the
// rows used pass a budget worth one self-join, every candidate is
// refreshed from ComputeMatrixProfile and the scan resumes on those
// (near-exact) bounds.
Result<LengthDiscord> RefineLength(const Series& x, const Layer& layer,
                                   std::size_t prev_pos, Carry* carry,
                                   PanCovRowFn cov_row,
                                   std::vector<std::vector<double>>* scratch) {
  const double tie_sq = layer.two_m * kPanTieCorrEps;
  // A row is count * m multiply-adds and a self-join ~count^2 / 2 pair
  // updates at ~4 multiply-add equivalents each, so 2 * count / m rows
  // cost about one self-join (measured: 0.4-1.4 self-joins at every
  // tier, n = 768-16384, m = 36-72).
  const std::size_t budget = 2 * layer.count / layer.m;
  std::vector<double> ub(layer.count);
  std::vector<char> refined(layer.count, 0);
  const auto set_bounds = [&] {
    for (std::size_t i = 0; i < layer.count; ++i) {
      ub[i] = BoundSq(layer, *carry, i);
    }
  };
  set_bounds();

  double best_sq = kNegInf;
  double best_dist = 0.0;
  std::size_t best_pos = kNoNeighbor;
  const auto below = [&](std::size_t i) { return ub[i] < best_sq - tie_sq; };
  const auto cannot_win = [&](std::size_t i) {
    return ub[i] <= best_sq + tie_sq && i > best_pos;
  };
  std::size_t rows = 0;
  bool done = false;
  std::vector<ExactRow> results(kRefineBatch);
  const auto run_batch = [&](const std::vector<std::size_t>& batch) -> Status {
    TSAD_RETURN_IF_ERROR(
        ParallelFor(0, batch.size(), [&](std::size_t k) -> Status {
          results[k] = ExactNn(x, layer, batch[k], cov_row, (*scratch)[k]);
          return Status::OK();
        }));
    rows += batch.size();
    for (std::size_t k = 0; k < batch.size(); ++k) {
      const std::size_t pos = batch[k];
      if (below(pos)) {
        done = true;
        break;
      }
      refined[pos] = 1;
      const ExactRow& row = results[k];
      if (row.neighbor != kNoNeighbor) carry->nn[pos] = row.neighbor;
      if (!std::isfinite(row.distance)) continue;
      const double d_sq = row.distance * row.distance;
      if (d_sq > best_sq + tie_sq ||
          (d_sq > best_sq - tie_sq && pos < best_pos)) {
        best_sq = d_sq;
        best_dist = row.distance;
        best_pos = pos;
      }
    }
    return Status::OK();
  };

  if (prev_pos < layer.count) TSAD_RETURN_IF_ERROR(run_batch({prev_pos}));

  // The unrefined subsequences still above best - tie, as a heap whose
  // front is the next in bound order; only the few rows the scan needs
  // are ever popped.
  const auto later = [&](std::size_t a, std::size_t b) {
    return ub[a] < ub[b] || (ub[a] == ub[b] && a > b);
  };
  std::vector<std::size_t> heap;
  const auto build_heap = [&] {
    heap.clear();
    for (std::size_t i = 0; i < layer.count; ++i) {
      if (!refined[i] && !below(i)) heap.push_back(i);
    }
    std::make_heap(heap.begin(), heap.end(), later);
  };
  build_heap();
  bool refreshed = false;
  std::vector<std::size_t> batch;
  while (!done && !heap.empty() && !below(heap.front())) {
    if (!refreshed && rows >= budget) {
      TSAD_RETURN_IF_ERROR(Refresh(x, layer, carry));
      set_bounds();
      build_heap();
      refreshed = true;
      continue;
    }
    batch.clear();
    while (batch.size() < kRefineBatch && !heap.empty() &&
           !below(heap.front())) {
      const std::size_t i = heap.front();
      std::pop_heap(heap.begin(), heap.end(), later);
      heap.pop_back();
      if (cannot_win(i)) {
        refined[i] = 1;
        continue;
      }
      batch.push_back(i);
    }
    if (!batch.empty()) TSAD_RETURN_IF_ERROR(run_batch(batch));
  }
  if (best_pos == kNoNeighbor) {
    return Status::Internal("no discord found at length " +
                            std::to_string(layer.m));
  }
  LengthDiscord d;
  d.length = layer.m;
  d.position = best_pos;
  d.distance = best_dist;
  d.normalized = best_dist / std::sqrt(static_cast<double>(layer.m));
  return d;
}

}  // namespace

Result<std::vector<LengthDiscord>> MerlinSweep(const Series& series,
                                               std::size_t min_length,
                                               std::size_t max_length) {
  TSAD_RETURN_IF_ERROR(ValidateMerlinRange(series, min_length, max_length));
  const PanCovRowFn cov_row = ActiveKernelVariant().pan_cov_row;
  std::vector<std::vector<double>> scratch(kRefineBatch);
  const std::size_t count = NumSubsequences(series.size(), min_length);
  Carry carry;
  carry.nn.assign(count, kNoNeighbor);
  carry.corr.assign(count, kNegInf);
  std::vector<LengthDiscord> out;
  out.reserve(max_length - min_length + 1);
  std::size_t prev_pos = kNoNeighbor;
  for (std::size_t m = min_length; m <= max_length; ++m) {
    const Layer layer = BuildLayer(series, m);
    if (m == min_length) {
      TSAD_RETURN_IF_ERROR(Refresh(series, layer, &carry));
    } else {
      TSAD_RETURN_IF_ERROR(Remeasure(series, layer, &carry));
      Propagate(series, layer, &carry);
    }
    TSAD_ASSIGN_OR_RETURN(
        const LengthDiscord d,
        RefineLength(series, layer, prev_pos, &carry, cov_row, &scratch));
    out.push_back(d);
    prev_pos = d.position;
  }
  return out;
}

MerlinDetector::MerlinDetector(std::size_t min_length, std::size_t max_length)
    : min_length_(min_length),
      max_length_(max_length),
      name_("MERLIN[" + std::to_string(min_length) + ".." +
            std::to_string(max_length) + "]") {}

Result<std::vector<double>> MerlinDetector::Score(
    const Series& series, std::size_t /*train_length*/) const {
  TSAD_ASSIGN_OR_RETURN(const std::vector<LengthDiscord> sweep,
                        MerlinSweep(series, min_length_, max_length_));

  std::vector<double> scores(series.size(), 0.0);
  for (const LengthDiscord& d : sweep) {
    // Spread each discord's normalized distance over the points it
    // covers; keep the max across lengths.
    const std::size_t end = std::min(series.size(), d.position + d.length);
    for (std::size_t i = d.position; i < end; ++i) {
      scores[i] = std::max(scores[i], d.normalized);
    }
  }
  return scores;
}

}  // namespace tsad
