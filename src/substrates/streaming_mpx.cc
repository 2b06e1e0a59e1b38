#include "substrates/streaming_mpx.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "common/saturating.h"
#include "common/vector_ops.h"
#include "substrates/mp_kernels.h"
#include "substrates/profile_internal.h"

namespace tsad {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr std::string_view kSnapshotTag = "streaming-mpx";

std::size_t ResolvedExclusion(const StreamingMpxConfig& config) {
  return config.exclusion == std::numeric_limits<std::size_t>::max()
             ? DefaultSelfJoinExclusion(config.m)
             : config.exclusion;
}

}  // namespace

std::string MinStreamingBufferText(std::size_t m) {
  // Decimal long multiplication by 4, so no product can wrap.
  std::string digits = std::to_string(m);
  int carry = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    const int d = (*it - '0') * 4 + carry;
    *it = static_cast<char>('0' + d % 10);
    carry = d / 10;
  }
  if (carry > 0) digits.insert(digits.begin(), static_cast<char>('0' + carry));
  return digits;
}

Status StreamingMpx::Validate(const StreamingMpxConfig& config) {
  if (config.m < 2) {
    return Status::InvalidArgument("subsequence length must be >= 2");
  }
  const std::size_t exclusion = ResolvedExclusion(config);
  if (config.buffer_cap != 0) {
    if (config.m > config.buffer_cap / 4) {  // buffer_cap < 4m, unwrapped
      return Status::InvalidArgument(
          "streaming buffer too small: need buffer_cap >= 4*m = " +
          MinStreamingBufferText(config.m) + ", got " +
          std::to_string(config.buffer_cap));
    }
    const std::size_t bytes = MemoryBytesBound(config);
    if (bytes > kMaxStreamingMpxBytes) {
      return Status::InvalidArgument(
          "streaming buffer of " + std::to_string(config.buffer_cap) +
          " points would reserve " +
          (bytes == kSizeMax ? "more than " : "") + std::to_string(bytes) +
          " bytes, over the kMaxStreamingMpxBytes limit of " +
          std::to_string(kMaxStreamingMpxBytes) + " bytes (1 GiB)");
    }
    // The post-prune window (3/4 of the buffer) must still admit at
    // least one joinable pair.
    const std::size_t min_points = config.buffer_cap - config.buffer_cap / 4;
    const std::size_t min_subs = min_points - config.m + 1;
    if (exclusion + 1 >= min_subs) {
      return Status::InvalidArgument(
          "exclusion zone " + std::to_string(exclusion) +
          " leaves no candidate neighbors within the pruned buffer (" +
          std::to_string(min_subs) + " subsequences)");
    }
  }
  if (config.band != 0 && config.band <= exclusion) {
    return Status::InvalidArgument(
        "time-constraint band " + std::to_string(config.band) +
        " must exceed the exclusion zone " + std::to_string(exclusion));
  }
  return Status::OK();
}

StreamingMpx::StreamingMpx(const StreamingMpxConfig& config)
    : config_(config) {
  assert(Validate(config).ok());
  config_.exclusion = ResolvedExclusion(config);
  chunk_ = config_.buffer_cap / 4;
  psum_ring_.assign(1, 0.0L);
  psq_ring_.assign(1, 0.0L);
  ReserveAll();
}

void StreamingMpx::ReserveAll() {
  const std::size_t cap = config_.buffer_cap;
  if (cap == 0) return;  // no eviction: buffers grow with the stream
  const std::size_t max_subs = cap - config_.m + 1;
  std::size_t max_span = cap - config_.m;
  if (config_.band > 0) max_span = std::min(max_span, config_.band);
  const std::size_t max_lags =
      max_span > config_.exclusion ? max_span - config_.exclusion : 0;
  x_.reserve(cap);
  psum_ring_.reserve(config_.m + 1);
  psq_ring_.reserve(config_.m + 1);
  means_.reserve(max_subs);
  stds_.reserve(max_subs);
  inv_.reserve(max_subs);
  ddf_.reserve(max_subs);
  ddg_.reserve(max_subs);
  right_corr_.reserve(max_subs);
  left_corr_.reserve(max_subs);
  right_idx_.reserve(max_subs);
  left_idx_.reserve(max_subs);
  flat_.reserve(max_subs);
  diag_cov_.reserve(max_lags);
}

std::size_t StreamingMpx::MemoryBytes() const {
  return sizeof(*this) +
         (x_.capacity() + means_.capacity() + stds_.capacity() +
          inv_.capacity() + ddf_.capacity() + ddg_.capacity() +
          right_corr_.capacity() + left_corr_.capacity() +
          diag_cov_.capacity()) *
             sizeof(double) +
         (right_idx_.capacity() + left_idx_.capacity() + flat_.capacity()) *
             sizeof(std::size_t) +
         (psum_ring_.capacity() + psq_ring_.capacity()) * sizeof(long double);
}

std::size_t StreamingMpx::MemoryBytesBound(const StreamingMpxConfig& config) {
  const std::size_t cap = config.buffer_cap;
  if (cap == 0) return std::numeric_limits<std::size_t>::max();  // unbounded
  const std::size_t exclusion = ResolvedExclusion(config);
  const std::size_t max_subs = cap - config.m + 1;
  std::size_t max_span = cap - config.m;
  if (config.band > 0) max_span = std::min(max_span, config.band);
  const std::size_t max_lags = max_span > exclusion ? max_span - exclusion : 0;
  // Per retained point: x. Per retained subsequence: means, stds, inv,
  // ddf, ddg, right_corr and left_corr (seven double tracks) and
  // right_idx, left_idx and flat (three index tracks). Per lag: the
  // diagonal covariance. Plus the two m + 1 prefix rings.
  const std::size_t per_sub = 7 * sizeof(double) + 3 * sizeof(std::size_t);
  std::size_t bytes = sizeof(StreamingMpx);
  bytes = SaturatingAdd(bytes, SaturatingMul(cap, sizeof(double)));
  bytes = SaturatingAdd(bytes, SaturatingMul(max_subs, per_sub));
  bytes = SaturatingAdd(bytes, SaturatingMul(max_lags, sizeof(double)));
  return SaturatingAdd(
      bytes, SaturatingMul(config.m + 1, 2 * sizeof(long double)));
}

std::size_t StreamingMpx::LagCount(std::size_t newest) const {
  std::size_t span = newest - base_;
  if (config_.band > 0 && span > config_.band) span = config_.band;
  return span > config_.exclusion ? span - config_.exclusion : 0;
}

void StreamingMpx::Prune() {
  const std::size_t drop = chunk_;
  const auto erase_front = [drop](auto& v) {
    v.erase(v.begin(),
            v.begin() + static_cast<std::ptrdiff_t>(std::min(drop, v.size())));
  };
  erase_front(x_);
  erase_front(means_);
  erase_front(stds_);
  erase_front(inv_);
  erase_front(ddf_);
  erase_front(ddg_);
  erase_front(right_corr_);
  erase_front(left_corr_);
  erase_front(right_idx_);
  erase_front(left_idx_);
  base_ += drop;
  flat_.erase(flat_.begin(),
              std::lower_bound(flat_.begin(), flat_.end(), base_));
  // Lags whose frontier subsequence fell off the buffer are dropped
  // from the back (largest lag first); the survivors keep their
  // running covariances untouched.
  if (seen_ >= config_.m && seen_ - config_.m >= base_) {
    const std::size_t keep = LagCount(seen_ - config_.m);
    if (diag_cov_.size() > keep) diag_cov_.resize(keep);
  } else {
    diag_cov_.clear();
  }
  ++evictions_;
}

void StreamingMpx::Push(double value, RightChangeLog* changes) {
  if (config_.buffer_cap != 0 && x_.size() == config_.buffer_cap) Prune();
  const std::size_t m = config_.m;
  const std::size_t ring = m + 1;
  const std::size_t t = seen_;  // global index of this point
  x_.push_back(value);
  tot_sum_ += value;
  tot_sq_ += static_cast<long double>(value) * value;
  if (psum_ring_.size() < ring) {  // the ring grows to m + 1 slots
    psum_ring_.push_back(tot_sum_);
    psq_ring_.push_back(tot_sq_);
  } else {
    psum_ring_[(t + 1) % ring] = tot_sum_;
    psq_ring_[(t + 1) % ring] = tot_sq_;
  }
  seen_ = t + 1;
  if (seen_ < m) return;  // first window still filling

  // Rolling window statistics from the prefix-total ring: the exact
  // operation sequence of the batch ComputeWindowStats, so flat
  // classification cannot diverge between the streaming and batch
  // kernels on an un-pruned stream.
  const std::size_t j = seen_ - m;  // global index of the new subsequence
  const std::size_t jl = j - base_;
  const WindowMoments w =
      MomentsFromSums(tot_sum_ - psum_ring_[(seen_ - m) % ring],
                      tot_sq_ - psq_ring_[(seen_ - m) % ring],
                      static_cast<long double>(m));
  means_.push_back(w.mean);
  stds_.push_back(w.stddev);
  if (profile_internal::IsFlat(w.mean, w.stddev)) {
    inv_.push_back(0.0);
    if (changes != nullptr) LogNewFlat(j, changes);
    flat_.push_back(j);
  } else {
    inv_.push_back(1.0 / (w.stddev * std::sqrt(static_cast<double>(m))));
  }
  // Difference tracks, fixed at arrival (entry 0 of the stream is kept
  // zero and never read — lag frontiers at the oldest retained
  // subsequence are always seeded, not advanced).
  if (j == 0) {
    ddf_.push_back(0.0);
    ddg_.push_back(0.0);
  } else {
    ddf_.push_back(0.5 * (x_[jl + m - 1] - x_[jl - 1]));
    ddg_.push_back((x_[jl + m - 1] - means_[jl]) +
                   (x_[jl - 1] - means_[jl - 1]));
  }
  right_corr_.push_back(kNegInf);
  right_idx_.push_back(kNoNeighbor);

  // Advance every tracked diagonal's frontier to the pair (j-lag, j) —
  // O(1) each via the rank-2 recurrence, with the periodic
  // locally-centered re-seed containing rounding drift — then open the
  // one lag that became joinable. Each pair updates the right-profile
  // best of the earlier subsequence and races for the left-profile
  // best of the new one (ties to the lower neighbor index, the batch
  // convention).
  const double inv_j = inv_[jl];
  const std::size_t nlags = diag_cov_.size();
  MpxAdvanceLagsArgs args;
  args.x = x_.data();
  args.means = means_.data();
  args.ddf = ddf_.data();
  args.ddg = ddg_.data();
  args.inv = inv_.data();
  args.diag_cov = diag_cov_.data();
  args.right_corr = right_corr_.data();
  args.right_idx = right_idx_.data();
  args.m = m;
  args.j = j;
  args.jl = jl;
  args.base = base_;
  args.exclusion = config_.exclusion;
  args.nlags = nlags;
  args.reseed = kStreamingMpxReseed;
  args.inv_j = inv_j;
  args.best = kNegInf;
  args.best_i = kNoNeighbor;
  args.changes = changes;
  // Records before this index come from the flat listing above and
  // already hold their pre-push neighbours.
  const std::size_t listed = changes != nullptr ? changes->size : 0;
  ActiveKernelVariant().mpx_advance_lags(args);
  const std::size_t target = LagCount(j);
  assert(target <= nlags + 1);
  if (target > nlags) {
    const std::size_t lag = config_.exclusion + 1 + nlags;
    const std::size_t i = j - lag;
    const std::size_t il = i - base_;
    const double c =
        MpxSeedCov(x_.data(), means_.data(), x_.data(), means_.data(), il,
                   jl, m);
    diag_cov_.push_back(c);
    const double corr = c * inv_[il] * inv_j;
    if (corr > right_corr_[il]) {
      if (changes != nullptr) changes->Record(il, right_idx_[il]);
      right_corr_[il] = corr;
      right_idx_[il] = j;
    }
    if (corr > args.best || (corr == args.best && i < args.best_i)) {
      args.best = corr;
      args.best_i = i;
    }
  }
  left_corr_.push_back(args.best);
  left_idx_.push_back(args.best_i);

  // A new right_idx at an inv == 0 entry changes nothing when the flat
  // rule already gives that entry a listed flat: drop those records.
  if (changes != nullptr && !changes->overflowed()) {
    std::size_t kept = listed;
    for (std::size_t c = listed; c < changes->size; ++c) {
      const RightChangeLog::Change change = changes->entries[c];
      if (inv_[change.local] == 0.0 &&
          RightFlat(base_ + change.local) != kNoNeighbor) {
        continue;
      }
      changes->entries[kept++] = change;
    }
    changes->size = kept;
  }
}

void StreamingMpx::LogNewFlat(std::size_t j, RightChangeLog* changes) const {
  // Entries i < j - exclusion are eligible. Those at or beyond
  // (last listed flat) - exclusion had no listed flat beyond their
  // exclusion zone; with a band, j must also lie within i's band.
  if (j <= config_.exclusion) return;
  const std::size_t end = j - config_.exclusion;
  std::size_t begin = base_;
  if (!flat_.empty() && flat_.back() > config_.exclusion) {
    begin = std::max(begin, flat_.back() - config_.exclusion);
  }
  if (config_.band > 0 && j > config_.band) {
    begin = std::max(begin, j - config_.band);
  }
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t local = i - base_;
    if (inv_[local] == 0.0) changes->Record(local, right_idx_[local]);
  }
}

std::size_t StreamingMpx::RightFlat(std::size_t i) const {
  const auto it =
      std::upper_bound(flat_.begin(), flat_.end(), i + config_.exclusion);
  if (it != flat_.end() && (config_.band == 0 || *it - i <= config_.band)) {
    return *it;
  }
  return kNoNeighbor;
}

std::size_t StreamingMpx::RightNeighbor(std::size_t local) const {
  if (inv_[local] == 0.0) {
    const std::size_t flat = RightFlat(base_ + local);
    if (flat != kNoNeighbor) return flat;
  }
  return right_idx_[local];
}

std::size_t StreamingMpx::CountRightArcs(std::size_t p, std::size_t* ends,
                                         std::size_t ring) const {
  const std::size_t pos = base_ + p;
  std::size_t arcs = 0;
  for (std::size_t local = 0; local < right_idx_.size(); ++local) {
    const std::size_t nn = RightNeighbor(local);
    if (nn == kNoNeighbor || nn <= pos) continue;
    if (local < p) ++arcs;
    ++ends[nn % ring];
  }
  return arcs;
}

StreamingMpx::Entry StreamingMpx::Right(std::size_t local) const {
  const double two_m = 2.0 * static_cast<double>(config_.m);
  const std::size_t i = base_ + local;
  Entry entry;
  if (inv_[local] == 0.0) {
    // SCAMP flat conventions, restricted to later neighbors: distance
    // 0 to the lowest eligible flat, else sqrt(2m) to whatever dynamic
    // neighbor won the all-zero-correlation race.
    const std::size_t flat = RightFlat(i);
    if (flat != kNoNeighbor) {
      entry.distance = 0.0;
      entry.neighbor = flat;
      return entry;
    }
    if (right_idx_[local] != kNoNeighbor) {
      entry.distance = std::sqrt(two_m);
      entry.neighbor = right_idx_[local];
    }
    return entry;
  }
  if (right_idx_[local] == kNoNeighbor) return entry;
  entry.distance = profile_internal::CorrToDistance(right_corr_[local], two_m);
  entry.neighbor = right_idx_[local];
  return entry;
}

StreamingMpx::Entry StreamingMpx::Left(std::size_t local) const {
  const double two_m = 2.0 * static_cast<double>(config_.m);
  const std::size_t i = base_ + local;
  Entry entry;
  if (inv_[local] == 0.0) {
    // SCAMP flat conventions, restricted to earlier neighbors: distance
    // 0 to the lowest retained flat j <= i - exclusion - 1 (inside the
    // band), else sqrt(2m) to whatever neighbor won the
    // all-zero-correlation race.
    const std::size_t lo =
        config_.band > 0 && i > config_.band ? i - config_.band : 0;
    const auto it = std::lower_bound(flat_.begin(), flat_.end(), lo);
    if (it != flat_.end() && *it + config_.exclusion < i) {
      entry.distance = 0.0;
      entry.neighbor = *it;
      return entry;
    }
    if (left_idx_[local] != kNoNeighbor) {
      entry.distance = std::sqrt(two_m);
      entry.neighbor = left_idx_[local];
    }
    return entry;
  }
  if (left_idx_[local] == kNoNeighbor) return entry;
  entry.distance = profile_internal::CorrToDistance(left_corr_[local], two_m);
  entry.neighbor = left_idx_[local];
  return entry;
}

StreamingMpx::Entry StreamingMpx::Merged(std::size_t local) const {
  const double two_m = 2.0 * static_cast<double>(config_.m);
  const std::size_t i = base_ + local;
  // Lexicographic merge of the two sides in correlation space; the
  // left index is always below i and the right above, so an exact tie
  // goes to the left (lower) neighbor, matching the batch kernels.
  double corr = kNegInf;
  std::size_t idx = kNoNeighbor;
  if (left_idx_[local] != kNoNeighbor) {
    corr = left_corr_[local];
    idx = left_idx_[local];
  }
  if (right_idx_[local] != kNoNeighbor && right_corr_[local] > corr) {
    corr = right_corr_[local];
    idx = right_idx_[local];
  }
  Entry entry;
  if (inv_[local] == 0.0) {
    // Lowest retained flat outside the exclusion zone on either side
    // (and inside the band), the batch patching rule over the
    // retained window.
    std::size_t nn = kNoNeighbor;
    if (!flat_.empty()) {
      const std::size_t lo =
          config_.band > 0 && i > config_.band ? i - config_.band : 0;
      const auto left =
          std::lower_bound(flat_.begin(), flat_.end(), lo);
      if (left != flat_.end() && i > config_.exclusion &&
          *left < i - config_.exclusion) {
        nn = *left;
      } else {
        nn = RightFlat(i);
      }
    }
    if (nn != kNoNeighbor) {
      entry.distance = 0.0;
      entry.neighbor = nn;
    } else if (idx != kNoNeighbor) {
      entry.distance = std::sqrt(two_m);
      entry.neighbor = idx;
    }
    return entry;
  }
  if (idx == kNoNeighbor) return entry;
  entry.distance = profile_internal::CorrToDistance(corr, two_m);
  entry.neighbor = idx;
  return entry;
}

void StreamingMpx::Serialize(ByteWriter* writer) const {
  writer->PutString(kSnapshotTag);
  writer->PutU64(config_.m);
  writer->PutU64(config_.buffer_cap);
  writer->PutU64(config_.exclusion);
  writer->PutU64(config_.band);
  writer->PutU64(seen_);
  writer->PutU64(base_);
  writer->PutU64(evictions_);
  writer->PutLongDouble(tot_sum_);
  writer->PutLongDouble(tot_sq_);
  writer->PutLongDoubles(psum_ring_);
  writer->PutLongDoubles(psq_ring_);
  writer->PutDoubles(x_);
  writer->PutDoubles(means_);
  writer->PutDoubles(stds_);
  writer->PutDoubles(inv_);
  writer->PutDoubles(ddf_);
  writer->PutDoubles(ddg_);
  writer->PutDoubles(right_corr_);
  writer->PutDoubles(left_corr_);
  writer->PutDoubles(diag_cov_);
  writer->PutSizes(right_idx_);
  writer->PutSizes(left_idx_);
  writer->PutSizes(flat_);
}

Status StreamingMpx::Deserialize(ByteReader* reader) {
  // An unreadable tag is a foreign layout too (e.g. a blob whose first
  // field is a length, not a string), not a truncated snapshot.
  std::string tag;
  if (!reader->GetString(&tag).ok() || tag != kSnapshotTag) {
    return Status::InvalidArgument("not a streaming-mpx snapshot");
  }
  std::uint64_t m = 0, cap = 0, exclusion = 0, band = 0;
  TSAD_RETURN_IF_ERROR(reader->GetU64(&m));
  TSAD_RETURN_IF_ERROR(reader->GetU64(&cap));
  TSAD_RETURN_IF_ERROR(reader->GetU64(&exclusion));
  TSAD_RETURN_IF_ERROR(reader->GetU64(&band));
  if (m != config_.m || cap != config_.buffer_cap ||
      exclusion != config_.exclusion || band != config_.band) {
    return Status::InvalidArgument(
        "streaming-mpx snapshot mismatch: m=" + std::to_string(m) +
        " buffer=" + std::to_string(cap) + " vs kernel m=" +
        std::to_string(config_.m) + " buffer=" +
        std::to_string(config_.buffer_cap));
  }
  std::uint64_t seen = 0, base = 0, evictions = 0;
  TSAD_RETURN_IF_ERROR(reader->GetU64(&seen));
  TSAD_RETURN_IF_ERROR(reader->GetU64(&base));
  TSAD_RETURN_IF_ERROR(reader->GetU64(&evictions));
  long double tot_sum = 0.0L, tot_sq = 0.0L;
  TSAD_RETURN_IF_ERROR(reader->GetLongDouble(&tot_sum));
  TSAD_RETURN_IF_ERROR(reader->GetLongDouble(&tot_sq));
  std::vector<long double> psum, psq;
  TSAD_RETURN_IF_ERROR(reader->GetLongDoubles(&psum));
  TSAD_RETURN_IF_ERROR(reader->GetLongDoubles(&psq));
  std::vector<double> x, means, stds, inv, ddf, ddg, right_corr, left_corr,
      diag_cov;
  TSAD_RETURN_IF_ERROR(reader->GetDoubles(&x));
  TSAD_RETURN_IF_ERROR(reader->GetDoubles(&means));
  TSAD_RETURN_IF_ERROR(reader->GetDoubles(&stds));
  TSAD_RETURN_IF_ERROR(reader->GetDoubles(&inv));
  TSAD_RETURN_IF_ERROR(reader->GetDoubles(&ddf));
  TSAD_RETURN_IF_ERROR(reader->GetDoubles(&ddg));
  TSAD_RETURN_IF_ERROR(reader->GetDoubles(&right_corr));
  TSAD_RETURN_IF_ERROR(reader->GetDoubles(&left_corr));
  TSAD_RETURN_IF_ERROR(reader->GetDoubles(&diag_cov));
  std::vector<std::size_t> right_idx, left_idx, flat;
  TSAD_RETURN_IF_ERROR(reader->GetSizes(&right_idx));
  TSAD_RETURN_IF_ERROR(reader->GetSizes(&left_idx));
  TSAD_RETURN_IF_ERROR(reader->GetSizes(&flat));
  const std::uint64_t ring = std::min<std::uint64_t>(seen, config_.m) + 1;
  if ((config_.buffer_cap != 0 && x.size() > config_.buffer_cap) ||
      psum.size() != ring || psq.size() != ring || base > seen ||
      x.size() != seen - base) {
    return Status::InvalidArgument("streaming-mpx snapshot corrupt: shape");
  }
  const std::size_t subs =
      x.size() >= config_.m ? x.size() - config_.m + 1 : 0;
  if (means.size() != subs || stds.size() != subs || inv.size() != subs ||
      ddf.size() != subs || ddg.size() != subs || right_corr.size() != subs ||
      left_corr.size() != subs || right_idx.size() != subs ||
      left_idx.size() != subs || flat.size() > subs ||
      diag_cov.size() > subs) {
    return Status::InvalidArgument("streaming-mpx snapshot corrupt: arrays");
  }
  seen_ = static_cast<std::size_t>(seen);
  base_ = static_cast<std::size_t>(base);
  evictions_ = evictions;
  tot_sum_ = tot_sum;
  tot_sq_ = tot_sq;
  psum_ring_ = std::move(psum);
  psq_ring_ = std::move(psq);
  x_ = std::move(x);
  means_ = std::move(means);
  stds_ = std::move(stds);
  inv_ = std::move(inv);
  ddf_ = std::move(ddf);
  ddg_ = std::move(ddg);
  right_corr_ = std::move(right_corr);
  left_corr_ = std::move(left_corr);
  diag_cov_ = std::move(diag_cov);
  right_idx_ = std::move(right_idx);
  left_idx_ = std::move(left_idx);
  flat_ = std::move(flat);
  // Re-pin every buffer at its lifetime maximum so the restored kernel
  // keeps the constant-MemoryBytes() guarantee.
  ReserveAll();
  return Status::OK();
}

}  // namespace tsad
