// Seeded, composable fault injection over Series / LabeledSeries, plus
// the serving-path fault layer behind bench/chaos_serving.cc.
//
// Generalizes the Fig 13 noise study into a full fault matrix: where
// the invariance harness sweeps one perturbation family at increasing
// levels, the FaultInjector models the concrete data pathologies §3 of
// the paper says production data actually exhibits — NaN and -9999
// missing markers, dropout gaps, flatlined (stuck-at) sensors, spike
// bursts, ADC clipping and quantization — each parameterized by a
// severity in [0, 1] and driven by an explicit seed so every corrupted
// series is bit-reproducible.
//
// The serving faults are a different axis: they attack the ENGINE, not
// the data — detectors that throw mid-stream, per-stream deadlines that
// blow, producer bursts that overflow queues, snapshots that arrive
// corrupted. ServingFaultState schedules them deterministically per
// stream and ChaosOnlineDetector injects them through the engine's
// detector_decorator seam, so a chaos run is exactly reproducible from
// its seed.

#ifndef TSAD_ROBUSTNESS_FAULT_INJECTOR_H_
#define TSAD_ROBUSTNESS_FAULT_INJECTOR_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/series.h"
#include "robustness/sanitize.h"
#include "serving/online_detector.h"

namespace tsad {

/// The fault taxonomy. Severity semantics per type are documented on
/// FaultSpec::severity.
enum class FaultType {
  kNanMissing,       // i.i.d. points replaced by NaN
  kSentinelMissing,  // i.i.d. points replaced by the -9999-style marker
  kDropout,          // one contiguous gap of NaN (a dead feed)
  kStuckAt,          // one contiguous run frozen at its first value
  kSpikeBurst,       // scattered large +/- spikes
  kClipping,         // saturation at inner quantiles (ADC/range limits)
  kQuantization,     // values rounded to a coarse grid (low-bit ADC)
  kAdditiveNoise,    // i.i.d. Gaussian noise, Fig 13 style
};

/// All eight fault types, in enum order.
const std::vector<FaultType>& AllFaultTypes();

std::string_view FaultTypeName(FaultType type);

/// One fault to apply.
struct FaultSpec {
  FaultType type = FaultType::kNanMissing;

  /// Interpretation by type, always scaling monotonically with damage:
  ///  * kNanMissing / kSentinelMissing: per-point corruption probability
  ///  * kDropout / kStuckAt: gap/run width as a fraction of the series
  ///  * kSpikeBurst: fraction of points spiked (at least 1 if > 0)
  ///  * kClipping: total quantile mass clipped (severity/2 per tail)
  ///  * kQuantization: grid step in units of the series std
  ///  * kAdditiveNoise: noise std in units of the series std
  double severity = 0.1;
};

/// Applies faults in the order they were added. Deterministic: the
/// output depends only on (seed, fault list, input).
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed) : seed_(seed) {}

  FaultInjector& Add(FaultSpec spec) {
    faults_.push_back(spec);
    return *this;
  }
  const std::vector<FaultSpec>& faults() const { return faults_; }

  /// Returns a corrupted copy. severity == 0 faults are no-ops.
  Series Apply(const Series& clean) const;

  /// Corrupts the values; name, labels and training split are kept —
  /// ground truth describes the underlying process, not the damage.
  LabeledSeries Apply(const LabeledSeries& clean) const;

 private:
  uint64_t seed_;
  std::vector<FaultSpec> faults_;
};

// ---------------------------------------------------------------------
// Serving-path faults (the chaos harness layer).

/// Faults the serving engine itself must survive. The first two are
/// injected by ChaosOnlineDetector through the engine's decorator seam;
/// the last two are driven by the harness against the engine's public
/// surface (producer bursts, corrupted failover blobs).
enum class ServingFaultType {
  kDetectorError,      // Observe fails with kInternal at one point
  kDeadlineStorm,      // Observe fails with kDeadlineExceeded at one point
  kQueueFullBurst,     // producers overrun a shard queue (kShed path)
  kSnapshotCorruption, // a failover blob arrives with flipped bytes
};

/// Per-stream incidence rates for the decorator-injected faults. Each
/// rate is the probability that a stream gets ONE such fault scheduled,
/// at a point index drawn uniformly from [0, horizon).
struct ServingFaultPlan {
  double detector_error_rate = 0.0;
  double deadline_storm_rate = 0.0;
  std::size_t horizon = 0;  // points per stream the schedule spans
};

/// One stream's fault schedule, fixed at construction from
/// (seed, stream id, plan) — bit-reproducible, independent of shard
/// placement and thread count.
///
/// The harness holds it via shared_ptr and hands the SAME instance to
/// every detector built for the stream. That is load-bearing: the
/// engine rebuilds detectors on quarantine recovery and cold-stream
/// thaw, and a transient fault that already fired must NOT fire again
/// when the recovered detector replays the same point — otherwise no
/// stream with a scheduled fault could ever recover.
class ServingFaultState {
 public:
  ServingFaultState(uint64_t seed, std::string_view stream_id,
                    const ServingFaultPlan& plan);

  /// Consumes the fault scheduled at point `index`, if any and not yet
  /// fired. Called by ChaosOnlineDetector before each point; not
  /// thread-safe (the engine serializes all access to a stream).
  std::optional<ServingFaultType> Fire(std::size_t index);

  bool detector_error_scheduled() const {
    return error_index_ != kNone;
  }
  bool deadline_storm_scheduled() const {
    return storm_index_ != kNone;
  }

 private:
  static constexpr std::size_t kNone =
      std::numeric_limits<std::size_t>::max();

  std::size_t error_index_ = kNone;
  std::size_t storm_index_ = kNone;
  bool error_fired_ = false;
  bool storm_fired_ = false;
};

/// OnlineDetector decorator that fires a ServingFaultState's schedule.
/// A fault fires BEFORE the point reaches the inner detector, so a
/// failed Observe leaves the inner state exactly as it was — the
/// engine's checkpoint rollback plus replay then reproduces the batch
/// scores bit for bit. Deadline storms fail fast with
/// kDeadlineExceeded rather than actually stalling, which keeps chaos
/// runs deterministic and cheap while exercising the same engine path
/// a real deadline blow-through takes.
class ChaosOnlineDetector : public OnlineDetector {
 public:
  ChaosOnlineDetector(std::unique_ptr<OnlineDetector> inner,
                      std::shared_ptr<ServingFaultState> faults);

  std::string_view name() const override { return inner_->name(); }
  Status Observe(double value, std::vector<ScoredPoint>* out) override;
  Status Flush(std::vector<ScoredPoint>* out) override;
  /// Snapshot/Restore forward to the inner detector unchanged: chaos
  /// blobs are compatible with undecorated rebuilds, and the fault
  /// schedule deliberately lives OUTSIDE the snapshot (see
  /// ServingFaultState).
  Result<std::string> Snapshot() const override;
  Status Restore(std::string_view blob) override;
  std::size_t MemoryFootprint() const override {
    return sizeof(*this) + inner_->MemoryFootprint();
  }

 private:
  std::unique_ptr<OnlineDetector> inner_;
  std::shared_ptr<ServingFaultState> faults_;
};

/// Returns `blob` with `flips` bytes deterministically XOR-flipped
/// (skipping the leading length prefix of a non-trivial blob, so the
/// corruption lands in payload rather than degenerating to an instant
/// length-check reject every time). For snapshot-corruption negative
/// tests: a restore from the result must FAIL, never half-apply.
std::string CorruptBlob(std::string_view blob, uint64_t seed,
                        std::size_t flips = 8);

}  // namespace tsad

#endif  // TSAD_ROBUSTNESS_FAULT_INJECTOR_H_
