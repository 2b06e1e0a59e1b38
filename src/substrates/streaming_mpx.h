// Streaming MPX: an online matrix-profile kernel over a ring buffer
// with prune-style eviction, or over the whole stream.
//
//  * a ring buffer of the most recent `buffer_cap` points; when it
//    fills, the oldest buffer_cap/4 points (and their subsequences)
//    are pruned in one chunk, so appends stay amortized O(1). With
//    buffer_cap = 0 nothing is ever evicted: the kernel keeps the whole
//    stream (O(n) memory, O(t) time per point) and its left profile is
//    the exact causal profile streaming discord scores from;
//  * MPX's diagonal formulation run incrementally: per arriving point,
//    every retained diagonal (lag) advances its running covariance by
//    the O(1) rank-2 ddf/ddg update, one new diagonal is seeded with
//    an O(m) locally-centered dot product, and rolling muinvn window
//    statistics come from running long-double prefix totals — the same
//    accumulation order as the batch ComputeWindowStats;
//  * the same error containment as the batch MPX joins: each diagonal
//    re-seeds its covariance every kStreamingMpxReseed steps with the
//    locally-centered dot, so recurrence drift is flushed on a fixed,
//    restore-stable schedule;
//  * an optional time-constraint band: pairs farther apart than `band`
//    subsequences are never joined, which caps the diagonal count
//    independently of the buffer (the FLOSS temporal constraint).
//
// The kernel maintains BOTH sides of the profile, with different
// contracts under eviction:
//
//  * Right profile (nearest neighbor among LATER subsequences): arcs
//    only point forward, and eviction drops the oldest data first, so
//    if subsequence i is retained every candidate neighbor j > i is
//    retained too. The streaming right profile over the retained
//    suffix therefore matches a batch right self-join of that suffix
//    (within the recurrence tolerance; flat entries exactly) — this is
//    what tests/substrates/profile_equivalence.cc certifies, and what
//    FLOSS's one-directional arc curve consumes.
//  * Left profile (nearest EARLIER neighbor, as of arrival): finalized
//    when the subsequence arrives, STAMPI-style. Its neighbor may
//    later be evicted; the distance remains the historical truth but
//    the index can point below first_subsequence(). Without eviction
//    it matches the batch ComputeLeftMatrixProfile within the
//    recurrence tolerance (flat entries exactly). Merged() combines
//    both sides and matches the batch self-join the same way when no
//    eviction has occurred.
//
// With a bounded buffer every buffer is reserved to its lifetime
// maximum at construction and never reallocates (chunked pruning uses
// vector::erase, which keeps capacity), so MemoryBytes() is CONSTANT
// from the first push to the hundred-thousandth — the property the
// serving engine's per-stream memory budget depends on.
// MemoryBytesBound() states the bound without constructing a kernel.

#ifndef TSAD_SUBSTRATES_STREAMING_MPX_H_
#define TSAD_SUBSTRATES_STREAMING_MPX_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/wire.h"
#include "substrates/matrix_profile.h"
#include "substrates/mp_kernels.h"

namespace tsad {

/// The most a bounded kernel may reserve: Validate() rejects any
/// buffer_cap whose MemoryBytesBound() exceeds 1 GiB (about eleven
/// million retained points), because the whole bound is reserved at
/// construction, before the first point arrives.
constexpr std::size_t kMaxStreamingMpxBytes = std::size_t{1} << 30;

/// Re-seed period of the incremental diagonal recurrence, in steps.
/// Mirrors the batch joins' kMpxRowBlock error containment; 512 keeps
/// the O(m) seed cost under ~13% of the recurrence work at m = 64.
constexpr std::size_t kStreamingMpxReseed = 512;

struct StreamingMpxConfig {
  /// Subsequence length; >= 2.
  std::size_t m = 64;
  /// Maximum retained points; >= 4 * m so the post-prune window always
  /// keeps several subsequence lengths of context. 0 = no eviction:
  /// the kernel keeps the whole stream.
  std::size_t buffer_cap = 4096;
  /// Self-join exclusion zone; SIZE_MAX resolves to the batch
  /// convention DefaultSelfJoinExclusion(m) = m / 2.
  std::size_t exclusion = std::numeric_limits<std::size_t>::max();
  /// Optional time-constraint band: subsequences more than `band`
  /// apart are never joined. 0 = unconstrained; otherwise must exceed
  /// the exclusion zone.
  std::size_t band = 0;
};

/// The smallest bounded buffer_cap for subsequence length m, 4 * m, as
/// decimal text: exact even where the product overflows a size_t.
std::string MinStreamingBufferText(std::size_t m);

class StreamingMpx {
 public:
  /// One profile entry. `neighbor` is a GLOBAL subsequence index (may
  /// be below first_subsequence() for Merged() after eviction), or
  /// kNoNeighbor with an infinite distance when no candidate exists.
  struct Entry {
    double distance = std::numeric_limits<double>::infinity();
    std::size_t neighbor = kNoNeighbor;
  };

  /// Rejects invalid configurations (m < 2, a nonzero buffer_cap < 4m,
  /// a bounded buffer over kMaxStreamingMpxBytes, an exclusion zone
  /// that leaves no joinable pair in the pruned buffer,
  /// band <= exclusion).
  static Status Validate(const StreamingMpxConfig& config);

  /// Asserts Validate(config).ok().
  explicit StreamingMpx(const StreamingMpxConfig& config);

  /// Appends the next point, pruning the oldest buffer_cap/4 points
  /// first when a bounded buffer is full.
  ///
  /// With a `changes` log, also reports every retained subsequence
  /// whose RightNeighbor() this push changed, as (local index after
  /// the push, previous neighbour). Every such change sets the
  /// neighbour to the new subsequence. The changes come from three
  /// places: strict improvements in the lag advance, the newly opened
  /// lag, and a newly listed flat subsequence, which becomes the
  /// neighbour of every inv == 0 entry that had no listed flat beyond
  /// its exclusion zone. Pruned subsequences are not reported; a
  /// reader sees the prune through evictions().
  void Push(double value, RightChangeLog* changes = nullptr);

  // --- Shape. Subsequence/point indices are GLOBAL (0 = first point
  // ever pushed); local array positions are global - first_*().
  std::size_t points_seen() const { return seen_; }
  std::size_t retained_points() const { return x_.size(); }
  std::size_t first_point() const { return base_; }
  std::size_t num_subsequences() const { return means_.size(); }
  std::size_t first_subsequence() const { return base_; }
  std::uint64_t evictions() const { return evictions_; }
  const StreamingMpxConfig& config() const { return config_; }

  /// Right-profile entry for the local-th retained subsequence, with
  /// the SCAMP flat conventions patched in (flat-vs-flat pairs at
  /// distance 0 with the lowest eligible flat neighbor, flat-vs-dynamic
  /// at sqrt(2m)).
  Entry Right(std::size_t local) const;

  /// Right(local).neighbor without building the distance: the
  /// right-profile index with the flat rule applied.
  std::size_t RightNeighbor(std::size_t local) const;

  /// FLOSS's arc count straight from the neighbour indices: returns how
  /// many retained subsequences before local position `p` have a
  /// RightNeighbor() beyond p, and adds one to ends[g % ring] for every
  /// retained subsequence whose neighbour g lies beyond p.
  /// O(retained subsequences).
  std::size_t CountRightArcs(std::size_t p, std::size_t* ends,
                             std::size_t ring) const;

  /// Left-profile entry for the local-th retained subsequence (nearest
  /// EARLIER neighbor as of its arrival), with the same SCAMP flat
  /// conventions restricted to earlier neighbors. Entries without an
  /// eligible earlier neighbor are +inf / kNoNeighbor.
  Entry Left(std::size_t local) const;

  /// Merged (both sides) entry; equals the batch MPX self-join when no
  /// eviction has occurred. After eviction the left component is the
  /// as-of-arrival value and its neighbor may be evicted.
  Entry Merged(std::size_t local) const;

  bool IsFlatAt(std::size_t local) const { return inv_[local] == 0.0; }

  /// Rolling moments of the local-th retained subsequence, exactly as
  /// the kernel classified and normalized it (the equivalence harness
  /// builds its naive reference from these so flat classification and
  /// z-normalization cannot diverge from the kernel under test).
  double MeanAt(std::size_t local) const { return means_[local]; }
  double StdAt(std::size_t local) const { return stds_[local]; }

  /// Bytes held by the kernel (object + every buffer at capacity).
  /// With a bounded buffer, CONSTANT over the kernel's lifetime: all
  /// buffers are reserved to their maximum at construction and pruning
  /// never releases capacity. Without eviction it grows with the
  /// stream.
  std::size_t MemoryBytes() const;

  /// The value MemoryBytes() reports for any bounded kernel built from
  /// `config` (requires buffer_cap >= m), computable without
  /// constructing one; SIZE_MAX (no bound) when buffer_cap = 0. Sums
  /// saturate at SIZE_MAX instead of wrapping.
  static std::size_t MemoryBytesBound(const StreamingMpxConfig& config);

  /// Bit-exact state serialization (for serving snapshots). Restore
  /// requires a kernel constructed with the same config and returns
  /// InvalidArgument on mismatch; on success the kernel continues the
  /// stream with bit-identical profile state.
  void Serialize(ByteWriter* writer) const;
  Status Deserialize(ByteReader* reader);

 private:
  void Prune();
  // Number of tracked diagonals when `newest` is the newest
  // subsequence: lags exclusion+1 .. min(newest - base_, band).
  std::size_t LagCount(std::size_t newest) const;
  void ReserveAll();
  // The lowest listed flat subsequence that global subsequence i may
  // take as its right neighbour (beyond the exclusion zone, inside the
  // band), or kNoNeighbor.
  std::size_t RightFlat(std::size_t i) const;
  // Logs the inv == 0 entries that global flat subsequence j, about to
  // be listed, becomes the right neighbour of.
  void LogNewFlat(std::size_t j, RightChangeLog* changes) const;

  StreamingMpxConfig config_;  // exclusion resolved at construction
  std::size_t chunk_ = 0;      // points pruned per eviction
  std::size_t seen_ = 0;       // points pushed over the whole stream
  std::size_t base_ = 0;       // global index of x_[0] (== evicted points)
  std::uint64_t evictions_ = 0;

  std::vector<double> x_;  // retained points [base_, seen_)

  // Rolling window statistics: running prefix totals over the WHOLE
  // stream (long double, same accumulation order as the batch
  // ComputeWindowStats) plus a ring of the last m+1 prefix values so
  // the newest window's sums come from one subtraction. The ring grows
  // with the stream to m + 1 slots (reserved up front when bounded),
  // so a huge m costs nothing before its points arrive.
  long double tot_sum_ = 0.0L;
  long double tot_sq_ = 0.0L;
  std::vector<long double> psum_ring_;  // indexed seen % (m+1)
  std::vector<long double> psq_ring_;

  // Per retained subsequence (local index aligned with x_).
  std::vector<double> means_;
  std::vector<double> stds_;
  std::vector<double> inv_;  // muinvn; exactly 0 for flat subsequences
  std::vector<double> ddf_;  // difference tracks (as of arrival)
  std::vector<double> ddg_;
  std::vector<double> right_corr_;  // best correlation with a LATER sub
  std::vector<double> left_corr_;   // best with an EARLIER sub, at arrival
  std::vector<std::size_t> right_idx_;  // global indices
  std::vector<std::size_t> left_idx_;
  std::vector<std::size_t> flat_;  // ascending global flat indices

  // Running covariance frontier per diagonal: diag_cov_[k] is the
  // covariance of the pair (newest - (exclusion+1+k), newest).
  std::vector<double> diag_cov_;
};

}  // namespace tsad

#endif  // TSAD_SUBSTRATES_STREAMING_MPX_H_
