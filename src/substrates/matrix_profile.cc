#include "substrates/matrix_profile.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <string>

#include "common/parallel.h"
#include "substrates/mp_kernels.h"
#include "substrates/profile_internal.h"

namespace tsad {

namespace {

// Diagonals per ParallelFor work item. Also the determinism grain: a
// diagonal's running covariance lives entirely inside one tile, so the
// per-pair correlations are identical no matter how tiles land on
// threads. 128 diagonals keep ~100+ tasks alive at bench sizes and
// still give several tiles at test sizes (count ~600), so the merge
// path is exercised even in small suites.
constexpr std::size_t kMpxDiagTile = 128;

// Offsets per cache block inside a tile. A tile touches the row segment
// [r0, r1) and the column segment [r0 + d_begin, r1 + d_end) of the
// ddf/ddg/inv/best arrays — with 1024 offsets that is about
// 2 * (1024 + 128) * 5 arrays * 8 bytes ~= 90 KiB, sized to stay
// L2-resident across all 128 diagonals of the tile instead of
// streaming full n-length arrays once per diagonal.
//
// The block boundary doubles as the error-containment boundary: each
// diagonal RE-SEEDS its covariance at the first offset of every block
// with a locally-centered O(m) dot product. The ddf/ddg recurrence is
// exact in exact arithmetic but mixes magnitudes — a diagonal crossing
// an extreme level shift (say a 1e6-level flat run in an O(1) series)
// briefly holds a ~1e12 covariance and keeps that magnitude's ABSOLUTE
// rounding error after returning to O(1) values. Re-seeding flushes
// the drift every kMpxRowBlock steps (the centered dot is well-
// conditioned at any level), so error accumulates over at most one
// block instead of a whole diagonal. Seeding costs m/kMpxRowBlock
// (~6% at m=64) of the recurrence work. Boundaries are fixed
// constants, so determinism is unaffected.
constexpr std::size_t kMpxRowBlock = 1024;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Per-side precompute of the MPX drivers: rolling stats, muinvn inverse
// norms (0 for flats, so every correlation a flat takes part in is
// exactly +/-0 — flats drop out of the neighbor race numerically and
// are patched to the SCAMP cases afterwards), the ascending flat index
// list, and the ddf/ddg difference tracks. Entry 0 of the tracks is
// never read (every block's first offset is an explicitly accumulated
// seed, and offset 0 is always a block start) but is kept zero so the
// arrays index directly by offset.
struct MpxSide {
  const std::vector<double>* series = nullptr;
  WindowStats stats;
  std::vector<double> inv;
  std::vector<std::size_t> flat_indices;
  std::vector<double> ddf, ddg;
};

MpxSide BuildMpxSide(const std::vector<double>& series, std::size_t m,
                     std::size_t count) {
  MpxSide s;
  s.series = &series;
  s.stats = ComputeWindowStats(series, m);
  const double sqrt_m = std::sqrt(static_cast<double>(m));
  s.inv.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (profile_internal::IsFlat(s.stats.means[i], s.stats.stds[i])) {
      s.inv[i] = 0.0;
      s.flat_indices.push_back(i);
    } else {
      s.inv[i] = 1.0 / (s.stats.stds[i] * sqrt_m);
    }
  }
  s.ddf.assign(count, 0.0);
  s.ddg.assign(count, 0.0);
  for (std::size_t j = 1; j < count; ++j) {
    s.ddf[j] = 0.5 * (series[j + m - 1] - series[j - 1]);
    s.ddg[j] = (series[j + m - 1] - s.stats.means[j]) +
               (series[j - 1] - s.stats.means[j - 1]);
  }
  return s;
}

// The best-so-far profile in correlation space.
struct CorrProfile {
  std::vector<double> corr;
  std::vector<std::size_t> index;
};

// Correlation -> distance for entries [begin, size), with the SCAMP
// flat cases patched in: a flat entry i sits at distance 0 from
// flat_nn(i) (the lowest eligible flat neighbor, or kNoNeighbor when
// none exists), else at sqrt(2m) from whatever neighbor won the
// all-zero-correlation race. Entries before `begin` stay +inf /
// kNoNeighbor.
template <typename FlatNn>
MatrixProfile FinishProfile(const CorrProfile& best,
                            const std::vector<double>& inv, std::size_t m,
                            std::size_t begin, const FlatNn& flat_nn) {
  const std::size_t count = best.corr.size();
  const double two_m = 2.0 * static_cast<double>(m);
  MatrixProfile profile;
  profile.subsequence_length = m;
  profile.distances.assign(count, std::numeric_limits<double>::infinity());
  profile.indices.assign(count, kNoNeighbor);
  for (std::size_t i = begin; i < count; ++i) {
    if (inv[i] == 0.0) {
      const std::size_t j = flat_nn(i);
      if (j != kNoNeighbor) {
        profile.distances[i] = 0.0;
        profile.indices[i] = j;
      } else if (best.index[i] != kNoNeighbor) {
        profile.distances[i] = std::sqrt(two_m);
        profile.indices[i] = best.index[i];
      }
      continue;
    }
    if (best.index[i] == kNoNeighbor) continue;  // NaN-poisoned input
    profile.distances[i] =
        profile_internal::CorrToDistance(best.corr[i], two_m);
    profile.indices[i] = best.index[i];
  }
  return profile;
}

// One sweep of a join: side A offsets o pair with side B offsets o + d
// over diagonals d in [d_begin, d_end), updating side A (entry o), side
// B (entry o + d) or both. The self-join is one both-sides sweep of a
// series against itself, the left profile one B sweep over the causal
// diagonals, and the AB-join an A and a B sweep (the rectangle's two
// halves).
struct JoinSweep {
  const MpxSide* a = nullptr;
  const MpxSide* b = nullptr;
  std::size_t d_begin = 0;
  std::size_t d_end = 0;
  MpxUpdate update = MpxUpdate::kBoth;
};

// The join driver. Every sweep is cut into tiles of kMpxDiagTile
// diagonals (tiles never straddle a sweep), and each tile walks its
// offsets in fixed row blocks, every diagonal freshly seeded at a
// block's first offset, through the dispatched join block. The tiles
// run over a small fixed worker set: each worker owns ONE local
// profile of `entries` for its whole strided tile share (per-tile
// locals would cost two allocations, fills and a merge per tile — with
// the dispatched SIMD kernels that bookkeeping, not the recurrence,
// would dominate) and merges it into `best` under a mutex with the
// lexicographic max. The result is independent of the partition and
// the thread count: every diagonal's chain lives in one tile, and both
// the local accumulation and the merge are order-independent. 4 shares
// per thread keep the tail balanced. The ISA tier is resolved once per
// join, so a concurrent override change cannot mix tiers within one
// profile.
Status RunJoinSweeps(const std::vector<JoinSweep>& sweeps, std::size_t m,
                     std::size_t entries, CorrProfile* best) {
  struct Tile {
    std::size_t sweep = 0;
    std::size_t d_begin = 0;
    std::size_t d_end = 0;
  };
  std::vector<Tile> tiles;
  for (std::size_t s = 0; s < sweeps.size(); ++s) {
    for (std::size_t d = sweeps[s].d_begin; d < sweeps[s].d_end;
         d += kMpxDiagTile) {
      tiles.push_back({s, d, std::min(sweeps[s].d_end, d + kMpxDiagTile)});
    }
  }
  best->corr.assign(entries, kNegInf);
  best->index.assign(entries, kNoNeighbor);
  if (tiles.empty()) return Status::OK();
  const MpKernelVariant& variant = ActiveKernelVariant();
  std::mutex merge_mutex;
  const std::size_t workers = std::min(
      tiles.size(), std::max<std::size_t>(ParallelThreads(), 1) * 4);
  return ParallelFor(0, workers, [&](std::size_t w) -> Status {
    std::vector<double> local_corr(entries, kNegInf);
    std::vector<std::size_t> local_index(entries, kNoNeighbor);
    for (std::size_t t = w; t < tiles.size(); t += workers) {
      const JoinSweep& sweep = sweeps[tiles[t].sweep];
      const MpxSide& a = *sweep.a;
      const MpxSide& b = *sweep.b;
      MpxBlockArgs args;
      args.series_a = a.series->data();
      args.means_a = a.stats.means.data();
      args.ddf_a = a.ddf.data();
      args.ddg_a = a.ddg.data();
      args.inv_a = a.inv.data();
      args.count_a = a.inv.size();
      args.series_b = b.series->data();
      args.means_b = b.stats.means.data();
      args.ddf_b = b.ddf.data();
      args.ddg_b = b.ddg.data();
      args.inv_b = b.inv.data();
      args.count_b = b.inv.size();
      args.m = m;
      args.d_begin = tiles[t].d_begin;
      args.d_end = tiles[t].d_end;
      args.update = sweep.update;
      args.local_corr = local_corr.data();
      args.local_index = local_index.data();
      // Longest diagonal of the tile (d ascending shortens them).
      const std::size_t max_len =
          std::min(args.count_a, args.count_b - args.d_begin);
      for (std::size_t r0 = 0; r0 < max_len; r0 += kMpxRowBlock) {
        args.r0 = r0;
        args.r1 = std::min(max_len, r0 + kMpxRowBlock);
        variant.mpx_block(args);
      }
    }
    std::lock_guard<std::mutex> lock(merge_mutex);
    for (std::size_t i = 0; i < entries; ++i) {
      MpxUpdateBest(best->corr.data(), best->index.data(), local_corr[i], i,
                    local_index[i]);
    }
    return Status::OK();
  });
}

}  // namespace

Result<std::vector<double>> DistanceProfile(const std::vector<double>& series,
                                            std::size_t pos, std::size_t m) {
  if (m < 2) return Status::InvalidArgument("subsequence length must be >= 2");
  const std::size_t count = NumSubsequences(series.size(), m);
  if (pos >= count) {
    return Status::InvalidArgument(
        "no length-" + std::to_string(m) + " subsequence starts at " +
        std::to_string(pos) + " in " + std::to_string(series.size()) +
        " points");
  }
  const MpxSide side = BuildMpxSide(series, m, count);
  std::vector<double> profile(count);
  PanCovRowArgs args;
  args.series = series.data();
  args.means = side.stats.means.data();
  args.pos = pos;
  args.m = m;
  args.count = count;
  args.out = profile.data();
  ActiveKernelVariant().pan_cov_row(args);
  const double two_m = 2.0 * static_cast<double>(m);
  const double inv_pos = side.inv[pos];
  for (std::size_t j = 0; j < count; ++j) {
    if (inv_pos == 0.0 || side.inv[j] == 0.0) {
      // The SCAMP flat cases: 0 between two flats, sqrt(2m) otherwise.
      profile[j] = inv_pos == 0.0 && side.inv[j] == 0.0 ? 0.0
                                                         : std::sqrt(two_m);
    } else {
      profile[j] = profile_internal::CorrToDistance(
          profile[j] * inv_pos * side.inv[j], two_m);
    }
  }
  return profile;
}

Result<MatrixProfile> ComputeMatrixProfile(const std::vector<double>& series,
                                           std::size_t m,
                                           std::size_t exclusion) {
  std::size_t count = 0;
  TSAD_RETURN_IF_ERROR(
      profile_internal::ValidateSelfJoin(series.size(), m, &exclusion, &count));
  const MpxSide side = BuildMpxSide(series, m, count);

  // One both-sides sweep of the series against itself over the
  // diagonals d > exclusion: pair (o, o + d) updates entry o with
  // neighbor o + d and entry o + d with neighbor o.
  CorrProfile best;
  TSAD_RETURN_IF_ERROR(RunJoinSweeps(
      {{&side, &side, exclusion + 1, count, MpxUpdate::kBoth}}, m, count,
      &best));

  return FinishProfile(best, side.inv, m, 0, [&](std::size_t i) {
    return profile_internal::LowestFlatOutsideExclusion(side.flat_indices, i,
                                                        exclusion);
  });
}

Result<MatrixProfile> ComputeLeftMatrixProfile(
    const std::vector<double>& series, std::size_t m, std::size_t exclusion) {
  std::size_t count = 0;
  TSAD_RETURN_IF_ERROR(profile_internal::ValidateLeftProfile(
      series.size(), m, &exclusion, &count));
  const MpxSide side = BuildMpxSide(series, m, count);

  // One b-side sweep of the series against itself over the causal
  // diagonals d > exclusion: pair (o, o + d) updates entry o + d with
  // past neighbor o. Entries below exclusion + 1 never appear as o + d
  // and keep the +inf / kNoNeighbor contract.
  const std::size_t min_diag = exclusion + 1;
  CorrProfile best;
  TSAD_RETURN_IF_ERROR(RunJoinSweeps(
      {{&side, &side, min_diag, count, MpxUpdate::kB}}, m, count, &best));

  const std::vector<std::size_t>& flat = side.flat_indices;
  return FinishProfile(best, side.inv, m, min_diag, [&](std::size_t i) {
    // Lowest PAST flat: j + exclusion + 1 <= i.
    return !flat.empty() && flat.front() + min_diag <= i ? flat.front()
                                                         : kNoNeighbor;
  });
}

Result<MatrixProfile> ComputeAbJoin(const std::vector<double>& query_series,
                                    const std::vector<double>& reference_series,
                                    std::size_t m) {
  std::size_t nq = 0, nr = 0;
  TSAD_RETURN_IF_ERROR(profile_internal::ValidateAbJoin(
      query_series.size(), reference_series.size(), m, &nq, &nr));
  const MpxSide qs = BuildMpxSide(query_series, m, nq);
  const MpxSide rs = BuildMpxSide(reference_series, m, nr);

  // The nq x nr rectangle as two diagonal half-spaces: sweep 1 covers
  // reference index >= query index (d = j - i in [0, nr)) updating the
  // query side as side A; sweep 2 covers the transposed strict half
  // (d = i - j in [1, nq), A = reference) updating the query side as
  // side B. Every (i, j) pair lands in exactly one sweep.
  CorrProfile best;
  TSAD_RETURN_IF_ERROR(RunJoinSweeps(
      {{&qs, &rs, 0, nr, MpxUpdate::kA}, {&rs, &qs, 1, nq, MpxUpdate::kB}},
      m, nq, &best));

  // A flat query subsequence sits at distance 0 from the LOWEST flat
  // reference index.
  return FinishProfile(best, qs.inv, m, 0, [&](std::size_t) {
    return rs.flat_indices.empty() ? kNoNeighbor : rs.flat_indices.front();
  });
}

std::vector<Discord> TopDiscords(const MatrixProfile& profile, std::size_t k,
                                 std::size_t exclusion) {
  if (exclusion == std::numeric_limits<std::size_t>::max()) {
    exclusion = DefaultDiscordExclusion(profile.subsequence_length);
  }
  // One sort-by-distance pass instead of rescanning the whole profile
  // per round (O(n log n + k * exclusion) vs O(k * n)). Walking the
  // sorted order and checking eligibility at pop time is exactly the
  // greedy the round-based scan ran: each round picked the highest
  // distance (lowest index on ties) among still-eligible entries, and
  // taking a discord only ever removes eligibility of entries visited
  // later in this order.
  std::vector<std::size_t> order;
  order.reserve(profile.size());
  for (std::size_t i = 0; i < profile.size(); ++i) {
    if (std::isfinite(profile.distances[i])) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (profile.distances[a] != profile.distances[b]) {
      return profile.distances[a] > profile.distances[b];
    }
    return a < b;
  });

  std::vector<Discord> discords;
  std::vector<uint8_t> eligible(profile.size(), 1);
  for (std::size_t i : order) {
    if (discords.size() == k) break;
    if (!eligible[i]) continue;
    Discord d;
    d.position = i;
    d.distance = profile.distances[i];
    d.nearest_neighbor = profile.indices[i];
    discords.push_back(d);
    const std::size_t lo = i > exclusion ? i - exclusion : 0;
    const std::size_t hi = std::min(profile.size(), i + exclusion + 1);
    for (std::size_t p = lo; p < hi; ++p) eligible[p] = 0;
  }
  return discords;
}

}  // namespace tsad
