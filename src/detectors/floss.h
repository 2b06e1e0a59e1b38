// FLOSS: online regime-change (segmentation) scoring over the
// bounded-memory streaming MPX kernel.
//
// FLUSS/FLOSS (Gharghabi et al., "Domain agnostic online semantic
// segmentation at superhuman performance levels") reads regime changes
// off the matrix-profile index: within a regime, subsequences find
// their nearest neighbors nearby, so many profile-index arcs cross any
// interior position; at a regime boundary almost no arcs cross. The
// arc count is normalized by its expectation under the no-structure
// null (the idealized arc curve, IAC) to the corrected arc curve
// CAC in [0, 1]; low CAC = likely boundary.
//
// The streaming variant (FLOSS) forces every arc to point RIGHT — each
// subsequence is linked to its nearest LATER neighbor, updated as new
// data arrives. One-directional arcs are exactly what the streaming
// kernel's right profile maintains, and they are eviction-safe: arcs
// never point into the pruned past. Under the right-only null (each of
// the p arcs starting before position p lands uniformly on a later
// subsequence) the expectation is
//
//     IAC_1d(p) = (L-1-p) * ln((L-1) / (L-1-p))
//
// over a window of L subsequences — the skewed one-directional analog
// of FLUSS's parabolic 2p(L-p)/L.
//
// The score at point t is 1 - CAC evaluated `lag` (= m) subsequences
// behind the newest one: a boundary is only visible once enough
// post-boundary data has arrived for arcs to stop crossing it, so the
// detector trades m points of delay for a stable estimate. Within
// `lag` of either window edge the CAC is clamped to 1 (score 0) — the
// arc-curve edge correction; the right buffer edge is handled by the
// lagged evaluation position, and after an eviction the window simply
// shrinks (arcs from pruned subsequences drop out of both AC and IAC).
//
// The arc count is a running total, so a point costs O(changes), not
// O(buffer). Every change a push makes to the right profile sets some
// subsequence's neighbour to the newest subsequence j, which lies
// beyond the evaluation position P = j - lag: a change can add an arc
// over P but never remove one. FlossCore keeps the count at P and a
// ring of how many neighbours end at each g in (P, j]. StreamingMpx::
// Push reports the changes in a log on Step's stack: strict
// improvements in the lag advance, the newly opened lag, and a newly
// listed flat window. Moving P forward by one adds entry P-1's arc and
// drops the arcs that end at P. The count is rebuilt from the
// neighbour indices (StreamingMpx::CountRightArcs) at the first
// evaluation, after each eviction (every buffer/4 points), after
// Deserialize, and when one push's changes overflow the log. The count
// is an integer, so the running total gives the recount's scores
// exactly.
//
// Scores are in [0, 1]; higher = more evidence of a regime change —
// a genuinely different workload class (segmentation) from the discord
// family, but served through the same detector interface so it joins
// the leaderboard sweep and the serving engine unchanged.
//
// The batch FlossDetector::Score() replays the series through the same
// FlossCore the online adapter advances point by point, so batch and
// online emissions are bit-identical by construction.

#ifndef TSAD_DETECTORS_FLOSS_H_
#define TSAD_DETECTORS_FLOSS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "detectors/detector.h"
#include "substrates/streaming_mpx.h"

namespace tsad {

/// Ring-buffer capacity (points) of a floss spec that omits the
/// `:<buffer>` component.
inline constexpr std::size_t kDefaultFlossBufferCap = 4096;

/// Parameters of a `floss:<window>[:<buffer>]` spec.
struct FlossParams {
  std::size_t m = 64;                               // subsequence length, >= 3
  std::size_t buffer_cap = kDefaultFlossBufferCap;  // retained points, >= 4*m
};

/// Parses a full `floss[:<window>[:<buffer>]]` spec (positional, unlike
/// the key=value detector grammar) and validates it: window >= 3,
/// buffer >= 4 * window, and the buffer's reserved kernel memory
/// (StreamingMpx::MemoryBytesBound) within kMaxStreamingMpxBytes, 1 GiB
/// or about eleven million points: a FLOSS stream reserves its whole
/// buffer when it is built. A missing buffer is kDefaultFlossBufferCap.
Result<FlossParams> ParseFlossSpec(const std::string& spec);

/// The shared streaming scorer: one Step() per arriving point, used by
/// both the batch detector (replay loop) and the online adapter, which
/// is what makes their outputs byte-identical.
class FlossCore {
 public:
  /// Requires ValidateFlossParams-clean inputs (asserted via the
  /// kernel's Validate).
  explicit FlossCore(const FlossParams& params);

  /// Pushes the next point and returns its regime-change score.
  double Step(double value);

  const StreamingMpx& kernel() const { return mpx_; }

  /// The kernel's MemoryBytes() plus the arc ring. Constant over the
  /// core's lifetime.
  std::size_t MemoryBytes() const;

  /// The end-of-stream length rule: a stream of n points must hold at
  /// least 2 subsequences.
  Status CheckLength(std::size_t n) const;

  /// These parameters at the start of a stream.
  FlossCore Fresh() const;

  /// The running arc count is derived state: it is not serialized, and
  /// the first Step after Deserialize recounts it. Deserialize expects
  /// a Fresh() core.
  void Serialize(ByteWriter* writer) const { mpx_.Serialize(writer); }
  Status Deserialize(ByteReader* reader, std::uint64_t seen);

 private:
  // Rebuilds arcs_ and ends_ at local evaluation position p from the
  // kernel's neighbour indices.
  void Recount(std::size_t p);

  StreamingMpx mpx_;
  std::size_t lag_;  // evaluation delay in subsequences (= m)
  // Running arc count at the evaluation position P, valid while
  // counted_. ends_[g % (lag + 1)] holds the number of retained
  // subsequences whose right neighbour is g, for g in (P, P + lag].
  bool counted_ = false;
  std::size_t arcs_ = 0;
  std::vector<std::size_t> ends_;
};

/// Batch detector for the registry: `floss:<window>[:<buffer>]`.
class FlossDetector : public AnomalyDetector {
 public:
  explicit FlossDetector(const FlossParams& params);

  std::string_view name() const override { return name_; }
  using AnomalyDetector::Score;
  Result<std::vector<double>> Score(const Series& series,
                                    std::size_t train_length) const override;

  const FlossParams& params() const { return params_; }

 private:
  FlossParams params_;
  std::string name_;
};

}  // namespace tsad

#endif  // TSAD_DETECTORS_FLOSS_H_
