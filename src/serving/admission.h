// Admission control for the sharded serving engine: the first rung of
// the degradation ladder (admit -> shed -> evict -> quarantine ->
// recover, see DESIGN.md §8).
//
// The queue-capacity backpressure in ShardedEngine is binary — a full
// queue sheds (or blocks) every producer equally. Under sustained
// overload that is the wrong shape: a monitoring stream that pages a
// human should keep flowing while a bulk backfill gets pushed back, and
// one noisy tenant must not starve the other nine. An AdmissionPolicy
// makes that call per Push, BEFORE the point is enqueued, from a
// snapshot of where the point would land (queue depth, the stream's
// priority class, the tenant's in-flight backlog).
//
// Denial is backpressure, not failure: a denied Push returns
// kResourceExhausted, the stream stays healthy, and the point is
// counted in ServingStats::points_denied (distinct from points_shed,
// the queue-capacity sheds).

#ifndef TSAD_SERVING_ADMISSION_H_
#define TSAD_SERVING_ADMISSION_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/status.h"

namespace tsad {

/// Priority classes, most to least important. The class gates two
/// independent survival decisions: how much queue headroom admission
/// leaves the stream under load, and whether the memory-budget enforcer
/// may cold-evict it (kCritical streams are never evicted).
enum class StreamPriority : int {
  kCritical = 0,  // admitted while any capacity remains; never evicted
  kHigh = 1,
  kNormal = 2,
  kBatch = 3,  // first denied under load, first cold-evicted
};

inline constexpr int kNumStreamPriorities = 4;

std::string_view StreamPriorityName(StreamPriority priority);

/// Parses a priority name ("critical", "high", "normal", "batch"),
/// rejecting unknown names with a "did you mean" hint (common/suggest).
Result<StreamPriority> ParseStreamPriority(std::string_view name);

/// The facts available to one admission decision. Depth/backlog values
/// are racy snapshots — admission shapes load, it does not serialize
/// it — but never stale by more than the in-flight Pushes.
struct AdmissionRequest {
  std::string_view stream_id;
  std::string_view tenant;  // "" = the default tenant
  StreamPriority priority = StreamPriority::kNormal;
  std::size_t queue_depth = 0;     // target shard's current occupancy
  std::size_t queue_capacity = 0;  // target shard's configured capacity
  std::uint64_t tenant_in_flight = 0;  // tenant's accepted-not-yet-drained
};

enum class AdmissionDecision {
  kAdmit,
  kDeny,  // reject with kResourceExhausted; the stream stays healthy
};

/// Pluggable per-Push admission decision. Called concurrently from
/// every producer thread, outside the engine's locks: implementations
/// must be thread-safe and cheap (one Push = one call). With no policy
/// (ServingConfig::admission null) every point is admitted, and
/// queue-capacity backpressure still applies after it.
class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;
  virtual AdmissionDecision Admit(const AdmissionRequest& request) const = 0;
};

/// Configuration for PriorityQuotaPolicy.
struct PriorityQuotaConfig {
  /// Per-class queue-fill ceiling, as a fraction of shard capacity:
  /// class p is admitted only while depth < fill_limit[p] * capacity.
  /// Lower classes keep headroom free for higher ones, so under overload
  /// the queue's tail is reserved for kCritical — the ladder's "shed
  /// the bulk work first" rung. Defaults: critical rides to the brim,
  /// batch is denied once the queue is half full.
  double fill_limit[kNumStreamPriorities] = {1.0, 0.9, 0.75, 0.5};

  /// Per-tenant cap on accepted-but-not-yet-drained points; a tenant at
  /// its quota is denied until Pump drains its backlog. 0 = unlimited.
  std::uint64_t default_tenant_quota = 0;

  /// Per-tenant overrides of default_tenant_quota (0 = unlimited).
  std::map<std::string, std::uint64_t> tenant_quota;
};

/// Priority fill ceilings + per-tenant in-flight quotas. Stateless
/// (decisions are pure functions of the request), hence trivially
/// thread-safe.
class PriorityQuotaPolicy : public AdmissionPolicy {
 public:
  explicit PriorityQuotaPolicy(PriorityQuotaConfig config = {});

  AdmissionDecision Admit(const AdmissionRequest& request) const override;

 private:
  PriorityQuotaConfig config_;
};

}  // namespace tsad

#endif  // TSAD_SERVING_ADMISSION_H_
