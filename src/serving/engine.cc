#include "serving/engine.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <optional>
#include <utility>

#include "common/parallel.h"
#include "common/wire.h"
#include "robustness/deadline.h"
#include "serving/online_adapters.h"

namespace tsad {

namespace {

// v2 added priority/tenant, stream health, quarantine checkpoints and
// cold detector state. v1 blobs are rejected (the codec is for live
// failover between peers of the same build, not archival).
constexpr std::string_view kSnapshotMagic = "tsad-serving-engine-v2";

std::uint64_t Fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// clear() keeps a string's buffer; a dropped blob must give it back.
void Release(std::string* blob) { std::string().swap(*blob); }

// Stream records Snapshot encodes per pass over the pool before
// appending them to the blob: enough to keep every worker busy, few
// enough that the staged copies stay small next to the blob (about
// 1.4 MB of peak memory on the perfbench serve fleet).
constexpr std::size_t kSnapshotBatch = 64;

// On 64-bit hosts a ScoredPoint lies in memory as the wire's (index,
// score) word pair, so a stream's scores move as one bulk copy.
constexpr bool kScoredPointIsTwoWords =
    sizeof(std::size_t) == 8 && sizeof(ScoredPoint) == 16 &&
    offsetof(ScoredPoint, score) == 8;

void PutScores(ByteWriter* writer, const std::vector<ScoredPoint>& out) {
  writer->PutU64(out.size());
  if constexpr (kScoredPointIsTwoWords) {
    writer->PutWords(out.data(), 2 * out.size());
  } else {
    for (const ScoredPoint& p : out) {
      writer->PutU64(p.index);
      writer->PutDouble(p.score);
    }
  }
}

// Decodes the scores Restore framed: `bytes` holds exactly their pairs.
Status GetScores(std::string_view bytes, std::vector<ScoredPoint>* out) {
  ByteReader reader(bytes);
  out->resize(bytes.size() / 16);
  if constexpr (kScoredPointIsTwoWords) {
    return reader.GetWords(out->data(), 2 * out->size());
  } else {
    for (ScoredPoint& p : *out) {
      std::uint64_t index;
      TSAD_RETURN_IF_ERROR(reader.GetU64(&index));
      TSAD_RETURN_IF_ERROR(reader.GetDouble(&p.score));
      p.index = static_cast<std::size_t>(index);
    }
    return Status::OK();
  }
}

}  // namespace

struct ShardedEngine::StreamState {
  // Where a stream sits on the degradation ladder. Transitions happen
  // only under the owning shard's pump lock; the value itself is
  // guarded by mu so producers and stats() can read it.
  enum class Health : std::uint8_t {
    kHealthy = 0,     // detector live
    kCold = 1,        // detector snapshotted to cold_blob, memory freed
    kQuarantined = 2, // detector down, points buffering, recovery pending
    kFailed = 3,      // sticky error, the terminal rung
  };

  std::string id;
  std::string spec;
  std::size_t train_length = 0;
  std::size_t shard = 0;
  StreamPriority priority = StreamPriority::kNormal;
  std::string tenant;
  // Queued points of the stream's tenant, which only an admission
  // policy reads; null without one.
  std::shared_ptr<std::atomic<std::uint64_t>> tenant_in_flight;

  // Null while cold, quarantined or failed.
  std::unique_ptr<OnlineDetector> detector;

  // Touched only while the owning shard's pump lock is held (one
  // drainer at a time), or from FinishStream/Snapshot after the final
  // Pump joined.
  std::vector<ScoredPoint> out;

  // Last-known-good recovery point (pump-lock domain). The checkpoint
  // pair is refreshed after every successful drain, so on a detector
  // error `out` rolls back to checkpoint_out and the failing batch goes
  // to `pending` — nothing scored past the checkpoint survives, which
  // is what keeps recovered streams byte-identical to batch.
  std::string checkpoint_blob;
  std::size_t checkpoint_out = 0;
  std::vector<double> pending;       // accepted, not yet scored
  // Failed recovery attempts so far. Written in the pump-lock domain;
  // atomic because StreamStatus() reports it from any thread.
  std::atomic<int> retries{0};
  std::uint64_t next_retry_pump = 0; // pump epoch gating the next attempt

  // Cold store (pump-lock domain): the detector snapshot while evicted.
  std::string cold_blob;

  // Approximate live detector bytes; 0 while cold/failed. Written in
  // the pump-lock domain through SetFootprint once registered, read
  // lock-free by stats().
  std::atomic<std::size_t> footprint{0};
  // True while the stream is in streams_ and its footprint counts
  // toward live_bytes_. Set before the stream is published, cleared by
  // FinishStream; read and cleared under the pump lock.
  bool registered = false;
  // Pump epoch of the last drained point (eviction recency order).
  std::atomic<std::uint64_t> last_active_pump{0};

  // Guarded by the owning shard's queue_mu: every point ever accepted,
  // and the ones accepted since the last drain, in arrival order. A
  // non-empty inbox puts the stream on its shard's ready list.
  std::size_t accepted = 0;
  std::vector<double> inbox;
  // The inbox a drain took, scored in the pump-lock domain. A drain
  // swaps it with the inbox, so both keep their capacity.
  std::vector<double> batch;

  // Health + sticky failure + quarantine cause; guarded by mu (read by
  // producers and stats(), written in the pump-lock domain).
  mutable std::mutex mu;
  Health health = Health::kHealthy;
  Status status = Status::OK();  // non-OK only when kFailed
  Status cause = Status::OK();   // the error that caused quarantine
  // health == kFailed, readable without mu: Push's one check per point.
  std::atomic<bool> failed{false};

  Status GetStatus() const {
    std::lock_guard<std::mutex> lock(mu);
    return status;
  }
  Health GetHealth() const {
    std::lock_guard<std::mutex> lock(mu);
    return health;
  }
  void Set(Health h, Status s, Status c) {
    std::lock_guard<std::mutex> lock(mu);
    health = h;
    status = std::move(s);
    cause = std::move(c);
    failed.store(h == Health::kFailed, std::memory_order_release);
  }
};

struct ShardedEngine::Shard {
  std::mutex queue_mu;
  // Guarded by queue_mu: the streams whose inbox is non-empty, in
  // first-push order, the points across those inboxes (the depth
  // queue_capacity bounds), and every point the shard ever accepted.
  std::vector<std::shared_ptr<StreamState>> ready;
  std::size_t depth = 0;
  std::uint64_t points_in = 0;
  // Serializes drains of this shard (Pump workers, kBlock producers and
  // the budget enforcer may race).
  std::mutex pump_mu;
};

ShardedEngine::ShardedEngine(ServingConfig config)
    : config_(std::move(config)) {
  std::size_t shards = config_.num_shards;
  if (shards == 0) shards = ParallelThreads();
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
}

ShardedEngine::~ShardedEngine() = default;

std::size_t ShardedEngine::ShardOf(const std::string& id) const {
  return static_cast<std::size_t>(Fnv1a(id) % shards_.size());
}

Result<std::shared_ptr<ShardedEngine::StreamState>> ShardedEngine::FindStream(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto it = streams_.find(id);
  if (it == streams_.end()) {
    return Status::NotFound("no such stream '" + id + "'");
  }
  return it->second;
}

Result<std::unique_ptr<OnlineDetector>> ShardedEngine::BuildDetector(
    const std::string& spec, std::size_t train_length,
    const std::string& id) const {
  TSAD_ASSIGN_OR_RETURN(std::unique_ptr<OnlineDetector> detector,
                        MakeOnlineDetector(spec, train_length));
  if (config_.detector_decorator) {
    return config_.detector_decorator(std::move(detector), id);
  }
  return detector;
}

std::shared_ptr<std::atomic<std::uint64_t>> ShardedEngine::TenantCounter(
    const std::string& tenant) {
  // Caller holds registry_mu_.
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    it = tenants_.emplace(tenant, std::make_shared<std::atomic<std::uint64_t>>(0))
             .first;
  }
  return it->second;
}

Status ShardedEngine::AddStream(const std::string& id,
                                const std::string& detector_spec,
                                StreamOptions options) {
  if (id.empty()) return Status::InvalidArgument("empty stream id");
  TSAD_ASSIGN_OR_RETURN(std::unique_ptr<OnlineDetector> detector,
                        BuildDetector(detector_spec, options.train_length, id));
  auto state = std::make_shared<StreamState>();
  state->id = id;
  state->spec = detector_spec;
  state->train_length = options.train_length;
  state->shard = ShardOf(id);
  state->priority = options.priority;
  state->tenant = std::move(options.tenant);
  state->footprint.store(detector->MemoryFootprint(),
                         std::memory_order_relaxed);
  state->detector = std::move(detector);

  std::lock_guard<std::mutex> lock(registry_mu_);
  if (config_.admission != nullptr) {
    state->tenant_in_flight = TenantCounter(state->tenant);
  }
  const auto [it, inserted] = streams_.try_emplace(id, std::move(state));
  if (!inserted) {
    return Status::InvalidArgument("stream '" + id + "' already exists");
  }
  // Nobody can find the stream before registry_mu_ is released, so it
  // joins the running total without its shard's pump lock.
  it->second->registered = true;
  live_bytes_.fetch_add(it->second->footprint.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  return Status::OK();
}

Status ShardedEngine::Push(const std::string& id, double value) {
  TSAD_ASSIGN_OR_RETURN(std::shared_ptr<StreamState> state, FindStream(id));
  if (state->failed.load(std::memory_order_acquire)) return state->GetStatus();
  Shard& shard = *shards_[state->shard];

  if (config_.admission != nullptr) {
    AdmissionRequest request;
    request.stream_id = state->id;
    request.tenant = state->tenant;
    request.priority = state->priority;
    request.queue_capacity = config_.queue_capacity;
    {
      std::lock_guard<std::mutex> lock(shard.queue_mu);
      request.queue_depth = shard.depth;
    }
    request.tenant_in_flight =
        state->tenant_in_flight->load(std::memory_order_relaxed);
    if (config_.admission->Admit(request) == AdmissionDecision::kDeny) {
      points_denied_.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          "admission denied for stream '" + id + "' (" +
          std::string(StreamPriorityName(state->priority)) + ", depth " +
          std::to_string(request.queue_depth) + "/" +
          std::to_string(request.queue_capacity) + ", tenant backlog " +
          std::to_string(request.tenant_in_flight) + ")");
    }
  }

  for (;;) {
    {
      std::lock_guard<std::mutex> lock(shard.queue_mu);
      if (shard.depth < config_.queue_capacity) {
        if (state->inbox.empty()) shard.ready.push_back(state);
        state->inbox.push_back(value);
        ++shard.depth;
        ++shard.points_in;
        ++state->accepted;
        if (state->tenant_in_flight != nullptr) {
          state->tenant_in_flight->fetch_add(1, std::memory_order_relaxed);
        }
        return Status::OK();
      }
    }
    if (config_.overflow == OverflowPolicy::kShed) {
      points_shed_.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          "shard " + std::to_string(state->shard) + " queue full (" +
          std::to_string(config_.queue_capacity) +
          " points); point shed for stream '" + id + "'");
    }
    // kBlock: make room by draining on the producer's own thread.
    DrainShard(state->shard);
  }
}

void ShardedEngine::SetFootprint(StreamState* state, std::size_t bytes) {
  // Pump lock held. Unsigned wraparound makes the delta signed-correct.
  const std::size_t old =
      state->footprint.exchange(bytes, std::memory_order_relaxed);
  if (state->registered) {
    live_bytes_.fetch_add(static_cast<std::uint64_t>(bytes) - old,
                          std::memory_order_relaxed);
  }
}

Status ShardedEngine::ThawStream(StreamState* state) {
  // Pump lock held; health is kCold. On error the cold blob is left in
  // place — the caller decides whether to quarantine or fail.
  TSAD_ASSIGN_OR_RETURN(
      std::unique_ptr<OnlineDetector> detector,
      BuildDetector(state->spec, state->train_length, state->id));
  TSAD_RETURN_IF_ERROR(detector->Restore(state->cold_blob));
  state->detector = std::move(detector);
  cold_bytes_.fetch_sub(state->cold_blob.size(), std::memory_order_relaxed);
  // The thawed state is the recovery point when recovery is enabled;
  // otherwise nothing reads the blob again.
  if (config_.recovery.max_retries > 0) {
    state->checkpoint_blob = std::move(state->cold_blob);
    state->checkpoint_out = state->out.size();
  }
  Release(&state->cold_blob);
  SetFootprint(state, state->detector->MemoryFootprint());
  state->Set(StreamState::Health::kHealthy, Status::OK(), Status::OK());
  thaws_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void ShardedEngine::FailStream(StreamState* state, const Status& cause) {
  // Pump lock held. The terminal rung: sticky status, buffered points
  // dropped, detector and recovery state released.
  points_dropped_.fetch_add(state->pending.size(), std::memory_order_relaxed);
  state->pending.clear();
  state->pending.shrink_to_fit();
  Release(&state->checkpoint_blob);
  cold_bytes_.fetch_sub(state->cold_blob.size(), std::memory_order_relaxed);
  Release(&state->cold_blob);
  state->detector.reset();
  SetFootprint(state, 0);
  const Status sticky(cause.code(),
                      "stream '" + state->id + "': " + cause.message());
  state->Set(StreamState::Health::kFailed, sticky, sticky);
}

void ShardedEngine::EnterQuarantine(StreamState* state, const Status& cause,
                                    const std::vector<double>& values) {
  // Pump lock held. Roll `out` back to the checkpoint (partial scores
  // from the failing batch must not survive — the recovery replay will
  // re-emit them) and buffer the whole batch for that replay.
  points_scored_.fetch_sub(state->out.size() - state->checkpoint_out,
                           std::memory_order_relaxed);
  state->out.resize(state->checkpoint_out);
  state->pending.insert(state->pending.end(), values.begin(), values.end());
  state->detector.reset();
  SetFootprint(state, 0);
  state->retries.store(0, std::memory_order_relaxed);
  state->next_retry_pump = pump_epoch_.load(std::memory_order_relaxed) + 1;
  Status annotated(cause.code(),
                   "stream '" + state->id + "': " + cause.message());
  state->Set(StreamState::Health::kQuarantined, Status::OK(),
             std::move(annotated));
  quarantines_.fetch_add(1, std::memory_order_relaxed);
}

void ShardedEngine::AttemptRecovery(StreamState* state, bool force) {
  // Pump lock held; health is kQuarantined.
  if (!force && pump_epoch_.load(std::memory_order_relaxed) <
                    state->next_retry_pump) {
    return;
  }

  Status status = Status::OK();
  std::unique_ptr<OnlineDetector> detector;
  std::vector<ScoredPoint> replayed;
  {
    Result<std::unique_ptr<OnlineDetector>> built =
        BuildDetector(state->spec, state->train_length, state->id);
    status = built.status();
    if (status.ok()) detector = std::move(built).value();
  }
  if (status.ok() && !state->checkpoint_blob.empty()) {
    status = detector->Restore(state->checkpoint_blob);
  }
  if (status.ok()) {
    std::optional<DeadlineScope> deadline;
    if (config_.stream_deadline.count() > 0) {
      deadline.emplace(config_.stream_deadline);
    }
    for (double value : state->pending) {
      status = CheckDeadline();
      if (status.ok()) status = detector->Observe(value, &replayed);
      if (!status.ok()) break;
    }
  }

  if (!status.ok()) {
    recovery_failures_.fetch_add(1, std::memory_order_relaxed);
    const int attempts =
        state->retries.fetch_add(1, std::memory_order_relaxed) + 1;
    if (force || attempts >= config_.recovery.max_retries) {
      FailStream(state,
                 Status(status.code(), status.message() + " (after " +
                                           std::to_string(attempts) +
                                           " recovery attempts)"));
    } else {
      // Exponential backoff, measured in pumps: 1, 2, 4, ...
      state->next_retry_pump =
          pump_epoch_.load(std::memory_order_relaxed) +
          (std::uint64_t{1} << attempts);
    }
    return;
  }

  // Recovered: splice the replayed scores in after the checkpoint and
  // refresh the checkpoint so the next failure rolls back to here.
  state->out.insert(state->out.end(), replayed.begin(), replayed.end());
  points_scored_.fetch_add(replayed.size(), std::memory_order_relaxed);
  state->pending.clear();
  state->pending.shrink_to_fit();
  state->detector = std::move(detector);
  Result<std::string> checkpoint = state->detector->Snapshot();
  if (!checkpoint.ok()) {
    FailStream(state, checkpoint.status());
    return;
  }
  state->checkpoint_blob = std::move(checkpoint).value();
  state->checkpoint_out = state->out.size();
  state->retries.store(0, std::memory_order_relaxed);
  SetFootprint(state, state->detector->MemoryFootprint());
  state->Set(StreamState::Health::kHealthy, Status::OK(), Status::OK());
  recoveries_.fetch_add(1, std::memory_order_relaxed);
}

void ShardedEngine::ProcessGroup(StreamState* state,
                                 const std::vector<double>& values) {
  // Pump lock held: one drained inbox, in arrival order.
  const bool recoverable = config_.recovery.max_retries > 0;
  switch (state->GetHealth()) {
    case StreamState::Health::kFailed:
      points_dropped_.fetch_add(values.size(), std::memory_order_relaxed);
      return;
    case StreamState::Health::kQuarantined:
      // Buffer behind the recovery point; Pump's recovery sweep (or
      // FinishStream) replays these once the detector is back.
      state->pending.insert(state->pending.end(), values.begin(),
                            values.end());
      return;
    case StreamState::Health::kCold: {
      Status thawed = ThawStream(state);
      if (!thawed.ok()) {
        // A bad cold snapshot is a detector failure. Promote the cold
        // blob to the recovery checkpoint first so the quarantined
        // state stays self-consistent (recovery retries the restore;
        // if the blob really is corrupt, retries exhaust and the
        // stream fails sticky).
        cold_bytes_.fetch_sub(state->cold_blob.size(),
                              std::memory_order_relaxed);
        state->checkpoint_blob = std::move(state->cold_blob);
        Release(&state->cold_blob);
        state->checkpoint_out = state->out.size();
        if (recoverable) {
          EnterQuarantine(state, thawed, values);
        } else {
          points_dropped_.fetch_add(values.size(),
                                    std::memory_order_relaxed);
          FailStream(state, thawed);
        }
        return;
      }
      break;
    }
    case StreamState::Health::kHealthy:
      break;
  }

  std::optional<DeadlineScope> deadline;
  if (config_.stream_deadline.count() > 0) {
    deadline.emplace(config_.stream_deadline);
  }
  const std::size_t before = state->out.size();
  Status status = Status::OK();
  std::size_t consumed = 0;
  for (double value : values) {
    status = CheckDeadline();
    if (status.ok()) status = state->detector->Observe(value, &state->out);
    if (!status.ok()) break;
    ++consumed;
  }
  points_scored_.fetch_add(state->out.size() - before,
                           std::memory_order_relaxed);
  state->last_active_pump.store(pump_epoch_.load(std::memory_order_relaxed),
                                std::memory_order_relaxed);

  if (!status.ok()) {
    if (recoverable) {
      EnterQuarantine(state, status, values);
    } else {
      points_dropped_.fetch_add(values.size() - consumed,
                                std::memory_order_relaxed);
      FailStream(state, status);
    }
    return;
  }

  SetFootprint(state, state->detector->MemoryFootprint());
  if (recoverable) {
    Result<std::string> checkpoint = state->detector->Snapshot();
    if (!checkpoint.ok()) {
      // Can't roll forward the recovery point; the detector's state is
      // unserializable, so treat it like a detector failure.
      FailStream(state, checkpoint.status());
      return;
    }
    state->checkpoint_blob = std::move(checkpoint).value();
    state->checkpoint_out = state->out.size();
  }
}

void ShardedEngine::DrainShard(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  std::lock_guard<std::mutex> pump_lock(shard.pump_mu);

  // Take the ready list and every listed inbox in one short critical
  // section; producers fill the emptied inboxes meanwhile. Streams are
  // independent, so only each stream's own arrival order matters.
  std::vector<std::shared_ptr<StreamState>> ready;
  {
    std::lock_guard<std::mutex> lock(shard.queue_mu);
    ready.swap(shard.ready);
    for (const auto& state : ready) state->batch.swap(state->inbox);
    shard.depth = 0;
  }
  for (const auto& state : ready) {
    if (state->tenant_in_flight != nullptr) {
      state->tenant_in_flight->fetch_sub(state->batch.size(),
                                         std::memory_order_relaxed);
    }
    ProcessGroup(state.get(), state->batch);
    state->batch.clear();
  }
}

Status ShardedEngine::Pump() {
  const auto start = std::chrono::steady_clock::now();
  pump_epoch_.fetch_add(1, std::memory_order_relaxed);
  // Only shards with queued points are dispatched: a pump over an idle
  // engine (FinishStream's, say) never wakes the pool.
  std::vector<std::size_t> busy;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::lock_guard<std::mutex> lock(shards_[i]->queue_mu);
    if (shards_[i]->depth != 0) busy.push_back(i);
  }
  Status status = ParallelFor(0, busy.size(), [&](std::size_t k) -> Status {
    DrainShard(busy[k]);
    return Status::OK();
  });

  // Recovery sweep: quarantined streams whose backoff has elapsed get a
  // rebuild-and-replay attempt. Runs after the drains so points that
  // arrived this pump are already buffered.
  if (config_.recovery.max_retries > 0) {
    std::vector<std::shared_ptr<StreamState>> quarantined;
    {
      std::lock_guard<std::mutex> lock(registry_mu_);
      for (const auto& [id, state] : streams_) {
        if (state->GetHealth() == StreamState::Health::kQuarantined) {
          quarantined.push_back(state);
        }
      }
    }
    for (const auto& state : quarantined) {
      std::lock_guard<std::mutex> pump_lock(shards_[state->shard]->pump_mu);
      if (state->GetHealth() == StreamState::Health::kQuarantined) {
        AttemptRecovery(state.get(), /*force=*/false);
      }
    }
  }

  EnforceMemoryBudget();

  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++pumps_;
    pump_total_seconds_ += seconds;
    pump_max_seconds_ = std::max(pump_max_seconds_, seconds);
    if (pump_ring_.size() < PumpLatencyStats::kWindow) {
      pump_ring_.push_back(seconds);
      pump_ring_pos_ = pump_ring_.size() % PumpLatencyStats::kWindow;
    } else {
      pump_ring_[pump_ring_pos_] = seconds;
      pump_ring_pos_ = (pump_ring_pos_ + 1) % PumpLatencyStats::kWindow;
    }
  }
  return status;
}

void ShardedEngine::EnforceMemoryBudget() {
  // The common case is one atomic load: live_bytes_ is kept current by
  // SetFootprint, so an under-budget fleet is never walked.
  const std::size_t budget = config_.memory_budget_bytes;
  const std::uint64_t total = live_bytes_.load(std::memory_order_relaxed);
  if (budget == 0 || total <= budget) {
    memory_bytes_.store(total, std::memory_order_relaxed);
    return;
  }

  // Over budget: cold-evict, lowest priority class first, then least
  // recently active, then lowest id (the registry is unordered, so the
  // last key makes the order total). kCritical streams, streams with
  // queued points and streams that are not plain-healthy are never
  // victims. The keys are read once, before sorting, so a racing drain
  // cannot change them under the sort.
  struct Victim {
    int priority;
    std::uint64_t last_active;
    std::shared_ptr<StreamState> state;
  };
  std::vector<Victim> victims;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    victims.reserve(streams_.size());
    for (const auto& [id, state] : streams_) {
      if (state->priority == StreamPriority::kCritical) continue;
      if (state->GetHealth() != StreamState::Health::kHealthy) continue;
      victims.push_back(
          {static_cast<int>(state->priority),
           state->last_active_pump.load(std::memory_order_relaxed), state});
    }
  }
  std::sort(victims.begin(), victims.end(),
            [](const Victim& a, const Victim& b) {
              if (a.priority != b.priority) return a.priority > b.priority;
              if (a.last_active != b.last_active) {
                return a.last_active < b.last_active;
              }
              return a.state->id < b.state->id;
            });

  for (const Victim& victim : victims) {
    if (live_bytes_.load(std::memory_order_relaxed) <= budget) break;
    StreamState* state = victim.state.get();
    Shard& shard = *shards_[state->shard];
    std::lock_guard<std::mutex> pump_lock(shard.pump_mu);
    // Checked under the pump lock: a racing drain (kBlock producer) may
    // have failed or quarantined the stream, a racing FinishStream
    // removed it, or a producer queued a point its next drain scores.
    if (!state->registered) continue;
    if (state->GetHealth() != StreamState::Health::kHealthy) continue;
    {
      std::lock_guard<std::mutex> lock(shard.queue_mu);
      if (!state->inbox.empty()) continue;
    }
    Result<std::string> blob = state->detector->Snapshot();
    if (!blob.ok()) continue;  // unserializable: skip, evict the next one
    state->cold_blob = std::move(blob).value();
    cold_bytes_.fetch_add(state->cold_blob.size(),
                          std::memory_order_relaxed);
    state->detector.reset();
    Release(&state->checkpoint_blob);
    SetFootprint(state, 0);
    state->Set(StreamState::Health::kCold, Status::OK(), Status::OK());
    cold_evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  memory_bytes_.store(live_bytes_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
}

Result<std::vector<double>> ShardedEngine::FinishStream(const std::string& id) {
  TSAD_RETURN_IF_ERROR(Pump());
  std::shared_ptr<StreamState> state;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    auto it = streams_.find(id);
    if (it == streams_.end()) {
      return Status::NotFound("no such stream '" + id + "'");
    }
    state = std::move(it->second);
    streams_.erase(it);
  }

  std::lock_guard<std::mutex> pump_lock(shards_[state->shard]->pump_mu);
  // Out of the budget from here on: the thaw or recovery below, and any
  // drain of points that raced the removal, no longer move live_bytes_.
  SetFootprint(state.get(), 0);
  state->registered = false;
  switch (state->GetHealth()) {
    case StreamState::Health::kQuarantined:
      // The stream is ending: recover now, backoff notwithstanding. A
      // failed forced attempt fails the stream.
      AttemptRecovery(state.get(), /*force=*/true);
      break;
    case StreamState::Health::kCold: {
      Status thawed = ThawStream(state.get());
      if (!thawed.ok()) FailStream(state.get(), thawed);
      break;
    }
    default:
      break;
  }
  TSAD_RETURN_IF_ERROR(state->GetStatus());
  const std::size_t before = state->out.size();
  TSAD_RETURN_IF_ERROR(state->detector->Flush(&state->out));
  points_scored_.fetch_add(state->out.size() - before,
                           std::memory_order_relaxed);
  std::size_t accepted;
  {
    std::lock_guard<std::mutex> lock(shards_[state->shard]->queue_mu);
    accepted = state->accepted;
  }
  return AssembleScores(state->out, accepted, id);
}

Status ShardedEngine::StreamStatus(const std::string& id) const {
  TSAD_ASSIGN_OR_RETURN(std::shared_ptr<StreamState> state, FindStream(id));
  std::lock_guard<std::mutex> lock(state->mu);
  if (state->health == StreamState::Health::kQuarantined) {
    return Status(state->cause.code(),
                  "quarantined (" +
                      std::to_string(
                          state->retries.load(std::memory_order_relaxed)) +
                      "/" +
                      std::to_string(config_.recovery.max_retries) +
                      " recovery attempts): " + state->cause.message());
  }
  return state->status;
}

Result<std::string> ShardedEngine::Snapshot() {
  TSAD_RETURN_IF_ERROR(Pump());
  std::lock_guard<std::mutex> lock(registry_mu_);
  // Every drain waits until the blob is written: it is one cut.
  std::vector<std::unique_lock<std::mutex>> drains;
  drains.reserve(shards_.size());
  for (const auto& shard : shards_) drains.emplace_back(shard->pump_mu);

  // An upper estimate of the bytes written for one stream: every field
  // at its exact size, except a live detector's blob, for which its
  // MemoryFootprint() stands in (each adapter serializes at most the
  // buffers it holds).
  auto bytes_bound = [](const StreamState& state) {
    // u64 fields and length prefixes: 10 for every stream, and at most
    // 7 more (for a quarantined one).
    constexpr std::size_t kWords = 17;
    std::size_t bytes = kWords * 8 + state.id.size() + state.spec.size() +
                        state.tenant.size() + 16 * state.out.size() +
                        state.checkpoint_blob.size() + state.cold_blob.size() +
                        8 * state.pending.size();
    if (state.detector != nullptr) bytes += state.detector->MemoryFootprint();
    std::lock_guard<std::mutex> lock(state.mu);
    return bytes + state.status.message().size() +
           state.cause.message().size();
  };
  // Streams in id order, so engines holding the same streams write the
  // same bytes whatever order the hashed registry iterates in. The
  // blob is sized once from the estimate instead of regrown.
  std::vector<const StreamState*> ordered;
  ordered.reserve(streams_.size());
  std::size_t bound = 16 + kSnapshotMagic.size();
  for (const auto& [id, state] : streams_) {
    ordered.push_back(state.get());
    bound += bytes_bound(*state);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const StreamState* a, const StreamState* b) {
              return a->id < b->id;
            });
  ByteWriter writer;
  writer.Reserve(bound);
  writer.PutString(kSnapshotMagic);
  writer.PutU64(ordered.size());
  const std::uint64_t epoch = pump_epoch_.load(std::memory_order_relaxed);
  auto encode = [&](const StreamState* state, ByteWriter* record) -> Status {
    record->PutString(state->id);
    record->PutString(state->spec);
    record->PutU64(state->train_length);
    record->PutU64(static_cast<std::uint64_t>(state->priority));
    record->PutString(state->tenant);
    {
      std::lock_guard<std::mutex> queue_lock(shards_[state->shard]->queue_mu);
      record->PutU64(state->accepted);
    }
    StreamState::Health health;
    Status status, cause;
    {
      std::lock_guard<std::mutex> state_lock(state->mu);
      health = state->health;
      status = state->status;
      cause = state->cause;
    }
    record->PutU64(static_cast<std::uint64_t>(health));
    record->PutU64(static_cast<std::uint64_t>(status.code()));
    record->PutString(status.message());
    PutScores(record, state->out);
    switch (health) {
      case StreamState::Health::kHealthy: {
        TSAD_ASSIGN_OR_RETURN(std::string blob, state->detector->Snapshot());
        record->PutString(blob);
        break;
      }
      case StreamState::Health::kCold:
        // Serialized without thawing: the cold blob IS the state.
        record->PutString(state->cold_blob);
        break;
      case StreamState::Health::kQuarantined: {
        record->PutString(state->checkpoint_blob);
        record->PutU64(state->checkpoint_out);
        record->PutDoubles(state->pending);
        record->PutU64(static_cast<std::uint64_t>(
            state->retries.load(std::memory_order_relaxed)));
        // Backoff survives as "pumps still to wait", since the restored
        // engine's pump epoch restarts from zero.
        const std::uint64_t remaining =
            state->next_retry_pump > epoch ? state->next_retry_pump - epoch
                                           : 0;
        record->PutU64(remaining);
        record->PutU64(static_cast<std::uint64_t>(cause.code()));
        record->PutString(cause.message());
        break;
      }
      case StreamState::Health::kFailed:
        break;  // sticky status above is the whole state
    }
    return Status::OK();
  };
  // The records are encoded on the pool, a fixed batch at a time, each
  // into its own staging writer, and appended in id order: the bytes do
  // not depend on the thread count, and the error returned is the
  // first failing stream's in id order.
  std::vector<ByteWriter> staged(std::min(kSnapshotBatch, ordered.size()));
  for (std::size_t first = 0; first < ordered.size();
       first += kSnapshotBatch) {
    const std::size_t n = std::min(kSnapshotBatch, ordered.size() - first);
    TSAD_RETURN_IF_ERROR(ParallelFor(0, n, [&](std::size_t k) {
      staged[k].Clear();
      return encode(ordered[first + k], &staged[k]);
    }));
    for (std::size_t k = 0; k < n; ++k) writer.PutBytes(staged[k].str());
  }
  return writer.Take();
}

Status ShardedEngine::Restore(std::string_view blob) {
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    if (!streams_.empty()) {
      return Status::FailedPrecondition(
          "Restore requires an engine with no streams (have " +
          std::to_string(streams_.size()) + ")");
    }
  }
  ByteReader reader(blob);
  std::string magic;
  TSAD_RETURN_IF_ERROR(reader.GetString(&magic));
  if (magic != kSnapshotMagic) {
    return Status::InvalidArgument("not a serving-engine snapshot");
  }
  std::uint64_t count;
  TSAD_RETURN_IF_ERROR(reader.GetU64(&count));
  const std::uint64_t epoch = pump_epoch_.load(std::memory_order_relaxed);

  // One stream record as the serial pass frames it: its fixed fields
  // already in `state`, its bulk parts still views into `blob`.
  struct Frame {
    std::shared_ptr<StreamState> state;
    StreamState::Health health = StreamState::Health::kHealthy;
    std::string_view scores;      // the (index, score) pairs
    std::string_view state_blob;  // detector, cold or checkpoint blob
    std::string_view pending;     // a quarantined stream's points
  };
  auto frame_stream = [&](Frame* frame) -> Status {
    auto state = std::make_shared<StreamState>();
    TSAD_RETURN_IF_ERROR(reader.GetString(&state->id));
    TSAD_RETURN_IF_ERROR(reader.GetString(&state->spec));
    std::uint64_t train_length, priority, accepted, health_raw, code,
        out_count;
    TSAD_RETURN_IF_ERROR(reader.GetU64(&train_length));
    TSAD_RETURN_IF_ERROR(reader.GetU64(&priority));
    TSAD_RETURN_IF_ERROR(reader.GetString(&state->tenant));
    TSAD_RETURN_IF_ERROR(reader.GetU64(&accepted));
    TSAD_RETURN_IF_ERROR(reader.GetU64(&health_raw));
    TSAD_RETURN_IF_ERROR(reader.GetU64(&code));
    std::string message;
    TSAD_RETURN_IF_ERROR(reader.GetString(&message));
    TSAD_RETURN_IF_ERROR(reader.GetCount(16, &out_count));  // index + score
    if (priority >= static_cast<std::uint64_t>(kNumStreamPriorities)) {
      return Status::InvalidArgument("snapshot has invalid priority class");
    }
    if (health_raw > static_cast<std::uint64_t>(
                         StreamState::Health::kFailed)) {
      return Status::InvalidArgument("snapshot has invalid stream health");
    }
    TSAD_RETURN_IF_ERROR(reader.GetBytes(
        16 * static_cast<std::size_t>(out_count), &frame->scores));
    state->train_length = static_cast<std::size_t>(train_length);
    state->priority = static_cast<StreamPriority>(priority);
    state->accepted = static_cast<std::size_t>(accepted);
    const auto health = static_cast<StreamState::Health>(health_raw);
    state->health = health;
    state->status = Status(static_cast<StatusCode>(code), std::move(message));
    state->failed.store(health == StreamState::Health::kFailed,
                        std::memory_order_relaxed);
    switch (health) {
      case StreamState::Health::kHealthy:
      case StreamState::Health::kCold:
        TSAD_RETURN_IF_ERROR(reader.GetStringView(&frame->state_blob));
        break;
      case StreamState::Health::kQuarantined: {
        TSAD_RETURN_IF_ERROR(reader.GetStringView(&frame->state_blob));
        std::uint64_t checkpoint_out, pending_count, retries, remaining,
            cause_code;
        TSAD_RETURN_IF_ERROR(reader.GetU64(&checkpoint_out));
        TSAD_RETURN_IF_ERROR(reader.GetCount(8, &pending_count));
        TSAD_RETURN_IF_ERROR(reader.GetBytes(
            8 * static_cast<std::size_t>(pending_count), &frame->pending));
        TSAD_RETURN_IF_ERROR(reader.GetU64(&retries));
        TSAD_RETURN_IF_ERROR(reader.GetU64(&remaining));
        TSAD_RETURN_IF_ERROR(reader.GetU64(&cause_code));
        std::string cause_message;
        TSAD_RETURN_IF_ERROR(reader.GetString(&cause_message));
        state->checkpoint_out = static_cast<std::size_t>(checkpoint_out);
        state->retries.store(static_cast<int>(retries),
                             std::memory_order_relaxed);
        state->next_retry_pump = epoch + remaining;
        state->cause = Status(static_cast<StatusCode>(cause_code),
                              std::move(cause_message));
        break;
      }
      case StreamState::Health::kFailed:
        break;
    }
    state->shard = ShardOf(state->id);  // re-placed under the new config
    frame->state = std::move(state);
    frame->health = health;
    return Status::OK();
  };
  // Decodes what framing left as views and rebuilds the detector.
  auto build_stream = [&](const Frame& frame) -> Status {
    StreamState& state = *frame.state;
    TSAD_RETURN_IF_ERROR(GetScores(frame.scores, &state.out));
    switch (frame.health) {
      case StreamState::Health::kHealthy: {
        TSAD_ASSIGN_OR_RETURN(
            state.detector,
            BuildDetector(state.spec, state.train_length, state.id));
        TSAD_RETURN_IF_ERROR(state.detector->Restore(frame.state_blob));
        if (config_.recovery.max_retries > 0) {  // the first recovery point
          state.checkpoint_blob.assign(frame.state_blob);
          state.checkpoint_out = state.out.size();
        }
        state.footprint.store(state.detector->MemoryFootprint(),
                              std::memory_order_relaxed);
        break;
      }
      case StreamState::Health::kCold:
        state.cold_blob.assign(frame.state_blob);
        break;
      case StreamState::Health::kQuarantined: {
        state.checkpoint_blob.assign(frame.state_blob);
        state.pending.resize(frame.pending.size() / 8);
        ByteReader pending(frame.pending);
        TSAD_RETURN_IF_ERROR(
            pending.GetWords(state.pending.data(), state.pending.size()));
        break;
      }
      case StreamState::Health::kFailed:
        break;
    }
    return Status::OK();
  };

  // Frame every record in one serial pass, stopping at the first
  // damaged one (a record that does not frame, or an id seen before).
  std::vector<Frame> frames;
  std::unordered_map<std::string, std::shared_ptr<StreamState>> restored;
  Status framed = Status::OK();
  for (std::uint64_t s = 0; s < count; ++s) {
    Frame frame;
    framed = frame_stream(&frame);
    if (!framed.ok()) break;
    const std::shared_ptr<StreamState>& state =
        frames.emplace_back(std::move(frame)).state;
    if (!restored.emplace(state->id, state).second) {
      framed = Status::InvalidArgument("snapshot contains duplicate stream id");
      break;
    }
  }
  if (framed.ok()) framed = reader.ExpectDone();
  // Then rebuild the framed streams on the pool. A stream's checks run
  // in field order (its framing, its detector, its id against earlier
  // ones) and ParallelFor reports the lowest failing index, so the
  // error returned is the first damaged stream's in blob order at any
  // thread count.
  TSAD_RETURN_IF_ERROR(ParallelFor(0, frames.size(), [&](std::size_t i) {
    return build_stream(frames[i]);
  }));
  TSAD_RETURN_IF_ERROR(framed);

  std::lock_guard<std::mutex> lock(registry_mu_);
  if (!streams_.empty()) {
    return Status::FailedPrecondition("streams added during Restore");
  }
  std::uint64_t restored_live_bytes = 0;
  std::uint64_t restored_cold_bytes = 0;
  for (const Frame& frame : frames) {  // in blob order
    StreamState& state = *frame.state;
    if (config_.admission != nullptr) {
      state.tenant_in_flight = TenantCounter(state.tenant);
    }
    state.registered = true;
    restored_live_bytes += state.footprint.load(std::memory_order_relaxed);
    restored_cold_bytes += state.cold_blob.size();
  }
  streams_ = std::move(restored);
  live_bytes_.fetch_add(restored_live_bytes, std::memory_order_relaxed);
  cold_bytes_.fetch_add(restored_cold_bytes, std::memory_order_relaxed);
  return Status::OK();
}

std::string DetectorTypeKey(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  std::string key = spec.substr(0, colon);
  if (key == "resilient" && colon != std::string::npos) {
    const std::size_t inner_end = spec.find(':', colon + 1);
    key += ':' + spec.substr(colon + 1, inner_end - colon - 1);
  }
  return key;
}

ServingStats ShardedEngine::stats() const {
  ServingStats out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->queue_mu);
    out.points_in += shard->points_in;
  }
  out.points_scored = points_scored_.load(std::memory_order_relaxed);
  out.points_shed = points_shed_.load(std::memory_order_relaxed);
  out.points_denied = points_denied_.load(std::memory_order_relaxed);
  out.points_dropped = points_dropped_.load(std::memory_order_relaxed);
  out.quarantines = quarantines_.load(std::memory_order_relaxed);
  out.recoveries = recoveries_.load(std::memory_order_relaxed);
  out.recovery_failures = recovery_failures_.load(std::memory_order_relaxed);
  out.cold_evictions = cold_evictions_.load(std::memory_order_relaxed);
  out.thaws = thaws_.load(std::memory_order_relaxed);
  out.memory_bytes = memory_bytes_.load(std::memory_order_relaxed);
  out.cold_bytes = cold_bytes_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    for (const auto& [id, state] : streams_) {
      switch (state->GetHealth()) {
        case StreamState::Health::kCold:
          ++out.streams_cold;
          break;
        case StreamState::Health::kQuarantined:
          ++out.streams_quarantined;
          break;
        default:
          break;
      }
      DetectorTypeStats& type = out.detector_memory[DetectorTypeKey(state->spec)];
      ++type.streams;
      type.bytes += state->footprint.load(std::memory_order_relaxed);
    }
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  out.pumps = pumps_;
  out.pump.count = pumps_;
  out.pump.mean_seconds = pumps_ > 0 ? pump_total_seconds_ /
                                           static_cast<double>(pumps_)
                                     : 0.0;
  out.pump.max_seconds = pump_max_seconds_;
  // Unroll the ring oldest-first: [pos, end) then [0, pos) once full.
  out.pump.recent.reserve(pump_ring_.size());
  if (pump_ring_.size() < PumpLatencyStats::kWindow) {
    out.pump.recent = pump_ring_;
  } else {
    out.pump.recent.insert(out.pump.recent.end(),
                           pump_ring_.begin() +
                               static_cast<std::ptrdiff_t>(pump_ring_pos_),
                           pump_ring_.end());
    out.pump.recent.insert(out.pump.recent.end(), pump_ring_.begin(),
                           pump_ring_.begin() +
                               static_cast<std::ptrdiff_t>(pump_ring_pos_));
  }
  if (!out.pump.recent.empty()) {
    std::vector<double> sorted = out.pump.recent;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t rank = static_cast<std::size_t>(
        0.99 * static_cast<double>(sorted.size() - 1));
    out.pump.p99_seconds = sorted[rank];
  }
  return out;
}

std::size_t ShardedEngine::num_streams() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return streams_.size();
}

}  // namespace tsad
