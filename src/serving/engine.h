// Multi-stream serving engine: hash-sharded online scoring on top of
// the common/parallel.h pool.
//
// Topology. Every stream id is FNV-1a-hashed onto one of N shards. A
// stream keeps an inbox of the points accepted since its last drain;
// its shard keeps a ready list of the streams whose inbox is non-empty,
// in first-push order, the total of points across those inboxes (the
// depth that queue_capacity bounds), and a drain lock. Producers append
// to the inbox under the shard's queue lock only (cheap); Pump() drains
// only the shards with queued points, one drain per shard across the
// thread pool, and a drain hands each ready stream its whole inbox at
// once. Because a stream lives on exactly one shard and a shard is
// drained by at most one thread at a time, detector state needs no
// locking of its own, and per-stream score order is arrival order
// regardless of thread count — which is what makes engine replay
// bit-identical at --threads 1 and 8.
//
// Survival: the degradation ladder. Overload and faults walk the
// engine down a policy-driven ladder instead of a binary shed/fail
// (full rationale and invariants in DESIGN.md §8):
//
//   1. ADMIT  — an AdmissionPolicy (serving/admission.h) may deny a
//      Push before it queues: per-stream priority classes keep queue
//      headroom for important streams, per-tenant quotas contain noisy
//      tenants. Denial is kResourceExhausted; the stream stays healthy.
//   2. SHED   — a full shard either sheds the point (kShed) or drains
//      the shard inline on the producer (kBlock).
//   3. EVICT  — when the rolled-up OnlineDetector::MemoryFootprint()
//      exceeds memory_budget_bytes, the least-recently-active streams
//      of the lowest priority class are cold-evicted: detector state is
//      snapshotted into the stream's one saved state and freed, and the
//      stream is thawed transparently (byte-exact restore) when its
//      next point is drained. kCritical streams are never evicted.
//   4. QUARANTINE — with recovery enabled, a stream whose detector
//      errors, or whose saved state fails to restore, is quarantined
//      instead of failed: its scores roll back to the saved state (the
//      last good checkpoint) and arriving points buffer.
//   5. RECOVER — after a backoff (measured in pumps, so tests are
//      deterministic) the stream is revived as a cold stream is thawed:
//      rebuilt from its saved state, with the buffered points replayed.
//      A transient fault therefore loses NOTHING: the recovered
//      stream's final scores are still byte-identical to the batch
//      detector. Retries are bounded; exhausting them fails the stream
//      with the classic sticky error.
//
// Failure containment (recovery disabled, the default). A stream whose
// detector errors — or whose drain deadline (stream_deadline) expires,
// kDeadlineExceeded — gets a STICKY error status: its remaining
// queued points are dropped, later Push()es are rejected with the same
// status, and FinishStream() surfaces it. Other streams, including
// those on the same shard, are untouched.

#ifndef TSAD_SERVING_ENGINE_H_
#define TSAD_SERVING_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "serving/admission.h"
#include "serving/online_detector.h"

namespace tsad {

/// What Push() does when the target shard holds queue_capacity points.
enum class OverflowPolicy {
  kShed,   // reject the point with kResourceExhausted
  kBlock,  // drain the shard on the calling thread, then enqueue
};

/// Quarantine-and-recover tuning. Disabled by default: max_retries == 0
/// preserves the original sticky-error semantics. A quarantined stream
/// retries one pump later, and waits twice as long after each failed
/// attempt (1, 2, 4, ... pumps). Pump-counted, not wall-clock, so
/// recovery schedules are deterministic under test.
struct RecoveryConfig {
  /// Recovery attempts before a quarantined stream fails for good.
  int max_retries = 0;
};

struct ServingConfig {
  /// Number of shards; 0 means "use ParallelThreads()".
  std::size_t num_shards = 0;
  /// Per-shard queue capacity: points queued across the shard's
  /// stream inboxes between drains.
  std::size_t queue_capacity = 1024;
  OverflowPolicy overflow = OverflowPolicy::kShed;
  /// Per-stream time budget for one drain pass; 0 disables. The budget
  /// starts when a stream's batch of queued points starts and is checked
  /// before each point; once it is spent, the stream fails (or, with
  /// recovery on, is quarantined) with kDeadlineExceeded. A point the
  /// detector is already observing is not interrupted. Recovery replays
  /// run under the same budget.
  std::chrono::nanoseconds stream_deadline{0};

  /// Admission policy consulted before each Push enqueues; null admits
  /// everything. Shared because ServingConfig is copied; the policy is
  /// called concurrently and must be thread-safe.
  std::shared_ptr<AdmissionPolicy> admission;

  /// Engine-wide budget for live detector memory (rolled up from
  /// OnlineDetector::MemoryFootprint()); 0 = unlimited. Enforced at the
  /// end of every Pump by cold-evicting streams, lowest priority and
  /// longest-idle first, ties by stream id (never kCritical, never
  /// quarantined/failed streams, never streams with queued points).
  ///
  /// Accounting: the engine keeps the sum of every registered stream's
  /// footprint as a running total, moved by each change of a stream's
  /// footprint (drain, thaw, eviction, quarantine, recovery, failure)
  /// and by AddStream, Restore and FinishStream. Checking the budget is
  /// therefore O(1) per Pump; only an over-budget Pump walks and sorts
  /// the stream registry to pick eviction victims.
  std::size_t memory_budget_bytes = 0;

  /// Quarantine-and-recover behavior for detector errors. Recovery
  /// checkpoints (a detector snapshot per stream, refreshed after every
  /// drain) are kept only while recovery is enabled.
  RecoveryConfig recovery;

  /// Test seam: wraps every detector the engine builds (at AddStream,
  /// Restore, thaw, and recovery rebuild) — the chaos harness injects
  /// faulting decorators here. Must be thread-safe; null disables.
  std::function<Result<std::unique_ptr<OnlineDetector>>(
      std::unique_ptr<OnlineDetector>, const std::string& stream_id)>
      detector_decorator;
};

/// Per-stream registration options.
struct StreamOptions {
  StreamPriority priority = StreamPriority::kNormal;
  /// Tenant for quota accounting; "" is the shared default tenant.
  std::string tenant;
  /// Anomaly-free training prefix length (same as the batch detectors).
  std::size_t train_length = 0;
};

/// Per-detector-type rollup of live stream state, keyed by
/// DetectorTypeKey(spec). `bytes` sums MemoryFootprint() over the
/// type's LIVE detectors (cold/quarantined/failed streams hold no live
/// detector and contribute 0), so bytes / streams understates the
/// per-stream cost when streams are cold — read it next to
/// streams_cold.
struct DetectorTypeStats {
  std::uint64_t streams = 0;  // registered streams of this type
  std::uint64_t bytes = 0;    // live detector footprint, summed
};

/// The memory-accounting key of a detector spec: the registry name up
/// to the first ':' — except `resilient:`, which keeps its inner
/// detector name too ("resilient:zscore:w=32" -> "resilient:zscore"),
/// because the wrapper's footprint is dominated by what it wraps.
std::string DetectorTypeKey(std::string_view spec);

/// Engine-wide counters; obtained via stats() (a consistent copy).
struct ServingStats {
  std::uint64_t points_in = 0;      // accepted into an inbox
  std::uint64_t points_scored = 0;  // ScoredPoints emitted by detectors
  std::uint64_t points_shed = 0;    // rejected by kShed backpressure
  std::uint64_t points_denied = 0;  // rejected by the admission policy
  std::uint64_t points_dropped = 0; // discarded after a sticky error
  std::uint64_t pumps = 0;
  double p99_pump_seconds = 0.0;  // nearest-rank 99th percentile of the
                                  // last 256 pumps' wall times

  // Degradation-ladder telemetry.
  std::uint64_t quarantines = 0;         // streams entering quarantine
  std::uint64_t recoveries = 0;          // successful recoveries
  std::uint64_t recovery_failures = 0;   // failed recovery attempts
  std::uint64_t cold_evictions = 0;      // streams moved to cold store
  std::uint64_t thaws = 0;               // cold streams restored
  std::uint64_t streams_cold = 0;        // currently cold
  std::uint64_t streams_quarantined = 0; // currently quarantined
  std::uint64_t memory_bytes = 0;  // live detector footprint after the
                                   // last budget enforcement
  std::uint64_t cold_bytes = 0;    // bytes held by cold snapshots

  /// Live detector footprint broken down by detector type (the
  /// `tsad serve` memory line and the serving bench JSON read this).
  std::map<std::string, DetectorTypeStats> detector_memory;
};

class ShardedEngine {
 public:
  explicit ShardedEngine(ServingConfig config = {});
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Registers a stream. The detector is built immediately (errors —
  /// unknown spec, no online adapter, missing training prefix — surface
  /// here, not at Push time). AlreadyExists is reported as
  /// InvalidArgument.
  Status AddStream(const std::string& id, const std::string& detector_spec,
                   StreamOptions options);
  Status AddStream(const std::string& id, const std::string& detector_spec,
                   std::size_t train_length = 0) {
    StreamOptions options;
    options.train_length = train_length;
    return AddStream(id, detector_spec, std::move(options));
  }

  /// Enqueues one point. Thread-safe; concurrent producers are fine.
  /// Quarantined and cold streams accept points transparently; only a
  /// permanently failed stream rejects with its sticky status.
  Status Push(const std::string& id, double value);

  /// Drains every shard with queued points once, in parallel across
  /// the pool, then enforces the memory budget. Stream-level failures
  /// do not fail the pump; they quarantine or stick to their stream.
  Status Pump();

  /// Pumps, forces any pending recovery (ignoring backoff — the stream
  /// is ending), thaws if cold, flushes the stream's detector, removes
  /// the stream and returns its dense score vector (one score per
  /// accepted point) — byte-identical to the batch detector run over
  /// the same values. Returns the sticky error if the stream failed.
  Result<std::vector<double>> FinishStream(const std::string& id);

  /// The stream's sticky status (OK while healthy or cold; a
  /// quarantined stream reports its pending failure, annotated).
  Status StreamStatus(const std::string& id) const;

  /// Serializes every stream (after a Pump) for engine-wide failover,
  /// in stream-id order: engines holding the same streams write the
  /// same bytes. Cold streams serialize their cold snapshot without
  /// thawing; quarantined streams carry their checkpoint and buffered
  /// points so the restored engine continues the recovery.
  Result<std::string> Snapshot();

  /// Rebuilds streams from a Snapshot() blob. The engine must have no
  /// streams; the restored engine continues every stream with
  /// bit-identical scores (shard count may differ — placement is
  /// recomputed from the id hash).
  Status Restore(std::string_view blob);

  ServingStats stats() const;
  std::size_t num_shards() const { return shards_.size(); }
  std::size_t num_streams() const;

 private:
  enum class Health : std::uint8_t;
  struct StreamState;
  struct Shard;

  std::size_t ShardOf(const std::string& id) const;
  void DrainShard(std::size_t shard_index);
  Result<std::shared_ptr<StreamState>> FindStream(const std::string& id) const;
  Result<std::unique_ptr<OnlineDetector>> BuildDetector(
      const std::string& spec, std::size_t train_length,
      const std::string& id) const;

  // These run with the owning shard's pump lock held.
  void ProcessGroup(StreamState* state, const std::vector<double>& values);
  // Rebuilds a cold or quarantined stream: restores its saved state,
  // replays its pending points under the drain budget and splices in
  // their scores. On error the stream is left as it was, for the caller
  // to quarantine, retry or fail.
  Status Revive(StreamState* state);
  // Feeds `values` to `detector` in order, appending its scores to
  // `out`, until the first error; the drain budget is checked before
  // each point. `consumed` counts the points the detector took.
  Status ObserveAll(OnlineDetector* detector,
                    const std::vector<double>& values,
                    std::vector<ScoredPoint>* out,
                    std::size_t* consumed) const;
  // With recovery on, makes the live detector's state the stream's
  // recovery point; with it off, frees the saved state. Returns false
  // after failing the stream when the detector cannot write its state.
  bool Checkpoint(StreamState* state);
  void EnterQuarantine(StreamState* state, const Status& cause,
                       const std::vector<double>& values);
  // A quarantined stream's revival failed: backs off, or fails the
  // stream once its retries are spent or when `final`.
  void RecoveryFailed(StreamState* state, const Status& cause, bool final);
  void FailStream(StreamState* state, const Status& cause);
  // Moves the stream along the ladder with its status (the sticky error
  // while failed, the cause while quarantined, else OK), and cold_bytes_
  // with it.
  void SetHealth(StreamState* state, Health health, Status status);
  // Sets the stream's footprint and moves live_bytes_ by the difference
  // while the stream is registered.
  void SetFootprint(StreamState* state, std::size_t bytes);

  void EnforceMemoryBudget();
  std::shared_ptr<std::atomic<std::uint64_t>> TenantCounter(
      const std::string& tenant);

  ServingConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex registry_mu_;
  // Unordered: every order a caller can observe (Snapshot bytes,
  // eviction victims) is made explicit by stream id where it is used.
  std::unordered_map<std::string, std::shared_ptr<StreamState>> streams_;
  std::map<std::string, std::shared_ptr<std::atomic<std::uint64_t>>>
      tenants_;  // in-flight points per tenant

  std::atomic<std::uint64_t> pump_epoch_{0};  // completed Pump() calls

  std::atomic<std::uint64_t> points_scored_{0};
  std::atomic<std::uint64_t> points_shed_{0};
  std::atomic<std::uint64_t> points_denied_{0};
  std::atomic<std::uint64_t> points_dropped_{0};
  std::atomic<std::uint64_t> quarantines_{0};
  std::atomic<std::uint64_t> recoveries_{0};
  std::atomic<std::uint64_t> recovery_failures_{0};
  std::atomic<std::uint64_t> cold_evictions_{0};
  std::atomic<std::uint64_t> thaws_{0};
  std::atomic<std::uint64_t> memory_bytes_{0};
  std::atomic<std::uint64_t> cold_bytes_{0};
  // Running sum of footprint over registered streams (see SetFootprint);
  // memory_bytes_ is its value after the last budget enforcement.
  std::atomic<std::uint64_t> live_bytes_{0};

  mutable std::mutex stats_mu_;
  std::uint64_t pumps_ = 0;
  // Durations of the last <= 256 pumps; pump k (from 1) writes slot
  // (k - 1) % 256, so the engine holds O(1) stats memory.
  std::vector<double> pump_ring_;
};

}  // namespace tsad

#endif  // TSAD_SERVING_ENGINE_H_
