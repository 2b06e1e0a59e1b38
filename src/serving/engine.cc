#include "serving/engine.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <utility>

#include "common/parallel.h"
#include "common/wire.h"
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

// Pumps whose durations the p99 covers.
constexpr std::size_t kPumpWindow = 256;

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

// Where a stream sits on the degradation ladder. Transitions happen
// only under the owning shard's pump lock, through SetHealth.
enum class ShardedEngine::Health : std::uint8_t {
  kHealthy = 0,     // detector live
  kCold = 1,        // detector down to `saved`, memory freed
  kQuarantined = 2, // detector down, points buffering, recovery pending
  kFailed = 3,      // sticky error, the terminal rung
};

struct ShardedEngine::StreamState {
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

  // The saved state (pump-lock domain). While the detector is down the
  // stream is Restore(saved) (a fresh detector when empty), then
  // out[0, saved_out), then a replay of `pending`; a cold stream has
  // saved_out == out.size() and nothing pending. With recovery on, a
  // live stream keeps its checkpoint here, refreshed after every drain,
  // so on a detector error `out` rolls back to saved_out and the failing
  // batch goes to `pending` — nothing scored past the checkpoint
  // survives, which is what keeps recovered streams byte-identical to
  // batch.
  std::string saved;
  std::size_t saved_out = 0;
  std::vector<double> pending;       // accepted, not yet scored
  // Failed recovery attempts so far. Written in the pump-lock domain;
  // atomic because StreamStatus() reports it from any thread.
  std::atomic<int> retries{0};
  std::uint64_t next_retry_pump = 0; // pump epoch gating the next attempt

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

  // Read without a lock by producers, stats() and the eviction scan.
  std::atomic<Health> health{Health::kHealthy};
  // The sticky error while failed, the cause while quarantined, else
  // OK. Guarded by mu, which `health` also moves under.
  mutable std::mutex mu;
  Status status = Status::OK();

  Health GetHealth() const { return health.load(std::memory_order_acquire); }
  Status GetStatus() const {
    std::lock_guard<std::mutex> lock(mu);
    return status;
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
  if (state->GetHealth() == Health::kFailed) return state->GetStatus();
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

void ShardedEngine::SetHealth(StreamState* state, Health health,
                              Status status) {
  // Pump lock held. cold_bytes_ counts `saved` while the stream is cold,
  // so it moves here, where a stream enters or leaves the cold store.
  const Health old = state->health.load(std::memory_order_relaxed);
  if (old == Health::kCold) {
    cold_bytes_.fetch_sub(state->saved.size(), std::memory_order_relaxed);
  }
  if (health == Health::kCold) {
    cold_bytes_.fetch_add(state->saved.size(), std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(state->mu);
  state->status = std::move(status);
  state->health.store(health, std::memory_order_release);
}

Status ShardedEngine::ObserveAll(OnlineDetector* detector,
                                 const std::vector<double>& values,
                                 std::vector<ScoredPoint>* out,
                                 std::size_t* consumed) const {
  // The budget runs from here; now + budget saturates at the clock's
  // last time point, so a budget past it never expires.
  using Clock = std::chrono::steady_clock;
  const bool timed = config_.stream_deadline.count() > 0;
  Clock::time_point deadline = Clock::time_point::max();
  if (timed) {
    const Clock::time_point now = Clock::now();
    if (config_.stream_deadline < Clock::time_point::max() - now) {
      deadline = now + config_.stream_deadline;
    }
  }
  for (*consumed = 0; *consumed < values.size(); ++*consumed) {
    if (timed && Clock::now() >= deadline) {
      return Status::DeadlineExceeded("stream deadline expired");
    }
    TSAD_RETURN_IF_ERROR(detector->Observe(values[*consumed], out));
  }
  return Status::OK();
}

bool ShardedEngine::Checkpoint(StreamState* state) {
  // Pump lock held, detector live, `out` complete up to its state.
  if (config_.recovery.max_retries == 0) {
    Release(&state->saved);  // nothing reads it again
    return true;
  }
  Result<std::string> blob = state->detector->Snapshot();
  if (!blob.ok()) {
    // The recovery point cannot move forward: the detector's state is
    // unserializable, so treat it like a detector failure.
    FailStream(state, blob.status());
    return false;
  }
  state->saved = std::move(blob).value();
  state->saved_out = state->out.size();
  return true;
}

void ShardedEngine::FailStream(StreamState* state, const Status& cause) {
  // Pump lock held. The terminal rung: sticky status, buffered points
  // dropped, detector and saved state released.
  points_dropped_.fetch_add(state->pending.size(), std::memory_order_relaxed);
  state->pending.clear();
  state->pending.shrink_to_fit();
  state->detector.reset();
  SetFootprint(state, 0);
  SetHealth(state, Health::kFailed,
            Status(cause.code(),
                   "stream '" + state->id + "': " + cause.message()));
  Release(&state->saved);  // after SetHealth, which reads its size
}

void ShardedEngine::EnterQuarantine(StreamState* state, const Status& cause,
                                    const std::vector<double>& values) {
  // Pump lock held. Roll `out` back to the saved state (partial scores
  // from the failing batch must not survive — the recovery replay will
  // re-emit them) and buffer the whole batch for that replay.
  points_scored_.fetch_sub(state->out.size() - state->saved_out,
                           std::memory_order_relaxed);
  state->out.resize(state->saved_out);
  state->pending.insert(state->pending.end(), values.begin(), values.end());
  state->detector.reset();
  SetFootprint(state, 0);
  state->retries.store(0, std::memory_order_relaxed);
  state->next_retry_pump = pump_epoch_.load(std::memory_order_relaxed) + 1;
  SetHealth(state, Health::kQuarantined,
            Status(cause.code(),
                   "stream '" + state->id + "': " + cause.message()));
  quarantines_.fetch_add(1, std::memory_order_relaxed);
}

void ShardedEngine::RecoveryFailed(StreamState* state, const Status& cause,
                                   bool final) {
  // Pump lock held; the stream is quarantined.
  recovery_failures_.fetch_add(1, std::memory_order_relaxed);
  const int attempts =
      state->retries.fetch_add(1, std::memory_order_relaxed) + 1;
  if (final || attempts >= config_.recovery.max_retries) {
    FailStream(state, Status(cause.code(), cause.message() + " (after " +
                                               std::to_string(attempts) +
                                               " recovery attempts)"));
    return;
  }
  // Exponential backoff, measured in pumps: 1, 2, 4, ...
  state->next_retry_pump = pump_epoch_.load(std::memory_order_relaxed) +
                           (std::uint64_t{1} << attempts);
}

Status ShardedEngine::Revive(StreamState* state) {
  // Pump lock held; the stream is cold or quarantined. Nothing changes
  // until the rebuilt detector has replayed every pending point.
  TSAD_ASSIGN_OR_RETURN(
      std::unique_ptr<OnlineDetector> detector,
      BuildDetector(state->spec, state->train_length, state->id));
  if (!state->saved.empty()) {
    TSAD_RETURN_IF_ERROR(detector->Restore(state->saved));
  }
  std::vector<ScoredPoint> replayed;
  std::size_t consumed;
  TSAD_RETURN_IF_ERROR(
      ObserveAll(detector.get(), state->pending, &replayed, &consumed));

  // Revived: splice the replayed scores in after out[0, saved_out).
  const bool thawed = state->GetHealth() == Health::kCold;
  state->out.insert(state->out.end(), replayed.begin(), replayed.end());
  points_scored_.fetch_add(replayed.size(), std::memory_order_relaxed);
  state->pending.clear();
  state->pending.shrink_to_fit();
  state->detector = std::move(detector);
  SetFootprint(state, state->detector->MemoryFootprint());
  SetHealth(state, Health::kHealthy, Status::OK());
  if (thawed) {
    // A thaw replays nothing, so with recovery on `saved` stays the
    // checkpoint as it is.
    if (config_.recovery.max_retries == 0) Release(&state->saved);
    thaws_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  // A recovery moved past `saved`: the next failure rolls back to here.
  if (Checkpoint(state)) {
    state->retries.store(0, std::memory_order_relaxed);
    recoveries_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

void ShardedEngine::ProcessGroup(StreamState* state,
                                 const std::vector<double>& values) {
  // Pump lock held: one drained inbox, in arrival order.
  Status status = Status::OK();
  switch (state->GetHealth()) {
    case Health::kFailed:
      points_dropped_.fetch_add(values.size(), std::memory_order_relaxed);
      return;
    case Health::kQuarantined:
      // Buffer behind the recovery point; Pump's recovery sweep (or
      // FinishStream) replays these once the detector is back.
      state->pending.insert(state->pending.end(), values.begin(),
                            values.end());
      return;
    case Health::kCold:
      // A cold state that does not restore is a detector failure:
      // quarantined, the stream keeps `saved` and recovery retries it.
      status = Revive(state);
      break;
    case Health::kHealthy:
      break;
  }

  std::size_t consumed = 0;
  if (status.ok()) {
    const std::size_t before = state->out.size();
    status = ObserveAll(state->detector.get(), values, &state->out, &consumed);
    points_scored_.fetch_add(state->out.size() - before,
                             std::memory_order_relaxed);
    state->last_active_pump.store(
        pump_epoch_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  if (!status.ok()) {
    if (config_.recovery.max_retries > 0) {
      EnterQuarantine(state, status, values);
    } else {
      points_dropped_.fetch_add(values.size() - consumed,
                                std::memory_order_relaxed);
      FailStream(state, status);
    }
    return;
  }
  SetFootprint(state, state->detector->MemoryFootprint());
  Checkpoint(state);
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
        if (state->GetHealth() == Health::kQuarantined) {
          quarantined.push_back(state);
        }
      }
    }
    for (const auto& state : quarantined) {
      std::lock_guard<std::mutex> pump_lock(shards_[state->shard]->pump_mu);
      if (state->GetHealth() != Health::kQuarantined ||
          pump_epoch_.load(std::memory_order_relaxed) <
              state->next_retry_pump) {
        continue;
      }
      const Status revived = Revive(state.get());
      if (!revived.ok()) RecoveryFailed(state.get(), revived, /*final=*/false);
    }
  }

  EnforceMemoryBudget();

  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    const std::size_t slot = pumps_++ % kPumpWindow;
    if (slot == pump_ring_.size()) {
      pump_ring_.push_back(seconds);
    } else {
      pump_ring_[slot] = seconds;
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
      if (state->GetHealth() != Health::kHealthy) continue;
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
    if (state->GetHealth() != Health::kHealthy) continue;
    {
      std::lock_guard<std::mutex> lock(shard.queue_mu);
      if (!state->inbox.empty()) continue;
    }
    Result<std::string> blob = state->detector->Snapshot();
    if (!blob.ok()) continue;  // unserializable: skip, evict the next one
    state->saved = std::move(blob).value();
    state->saved_out = state->out.size();
    state->detector.reset();
    SetFootprint(state, 0);
    SetHealth(state, Health::kCold, Status::OK());
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
  const Health health = state->GetHealth();
  if (health == Health::kCold || health == Health::kQuarantined) {
    // The stream is ending: revive it now, backoff notwithstanding. A
    // failed attempt fails the stream.
    const Status revived = Revive(state.get());
    if (!revived.ok() && health == Health::kQuarantined) {
      RecoveryFailed(state.get(), revived, /*final=*/true);
    } else if (!revived.ok()) {
      FailStream(state.get(), revived);
    }
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
  std::lock_guard<std::mutex> lock(state->mu);  // health and status agree
  const Status& status = state->status;
  if (state->GetHealth() == Health::kQuarantined) {
    return Status(status.code(),
                  "quarantined (" +
                      std::to_string(
                          state->retries.load(std::memory_order_relaxed)) +
                      "/" +
                      std::to_string(config_.recovery.max_retries) +
                      " recovery attempts): " + status.message());
  }
  return status;
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
                        state.saved.size() + 8 * state.pending.size();
    if (state.detector != nullptr) bytes += state.detector->MemoryFootprint();
    return bytes + state.GetStatus().message().size();
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
    const Health health = state->GetHealth();
    const Status status = state->GetStatus();
    // The sticky field holds a failed stream's error; a quarantined
    // stream's cause follows its checkpoint.
    const Status sticky = health == Health::kFailed ? status : Status::OK();
    record->PutU64(static_cast<std::uint64_t>(health));
    record->PutU64(static_cast<std::uint64_t>(sticky.code()));
    record->PutString(sticky.message());
    PutScores(record, state->out);
    switch (health) {
      case Health::kHealthy: {
        TSAD_ASSIGN_OR_RETURN(std::string blob, state->detector->Snapshot());
        record->PutString(blob);
        break;
      }
      case Health::kCold:
        // Serialized without thawing: `saved` IS the state.
        record->PutString(state->saved);
        break;
      case Health::kQuarantined: {
        record->PutString(state->saved);
        record->PutU64(state->saved_out);
        record->PutDoubles(state->pending);
        record->PutU64(static_cast<std::uint64_t>(
            state->retries.load(std::memory_order_relaxed)));
        // Backoff survives as "pumps still to wait", since the restored
        // engine's pump epoch restarts from zero.
        const std::uint64_t remaining =
            state->next_retry_pump > epoch ? state->next_retry_pump - epoch
                                           : 0;
        record->PutU64(remaining);
        record->PutU64(static_cast<std::uint64_t>(status.code()));
        record->PutString(status.message());
        break;
      }
      case Health::kFailed:
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
    Health health = Health::kHealthy;
    std::string_view scores;      // the (index, score) pairs
    std::string_view state_blob;  // the detector's or the saved state
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
    if (health_raw > static_cast<std::uint64_t>(Health::kFailed)) {
      return Status::InvalidArgument("snapshot has invalid stream health");
    }
    if (code > static_cast<std::uint64_t>(kLastStatusCode)) {
      return Status::InvalidArgument("snapshot has invalid status code");
    }
    const auto health = static_cast<Health>(health_raw);
    if ((health == Health::kFailed) == (code == 0)) {
      return Status::InvalidArgument(
          "snapshot stream status contradicts its health");
    }
    TSAD_RETURN_IF_ERROR(reader.GetBytes(
        16 * static_cast<std::size_t>(out_count), &frame->scores));
    state->train_length = static_cast<std::size_t>(train_length);
    state->priority = static_cast<StreamPriority>(priority);
    state->accepted = static_cast<std::size_t>(accepted);
    state->health.store(health, std::memory_order_relaxed);
    state->status = Status(static_cast<StatusCode>(code), std::move(message));
    switch (health) {
      case Health::kHealthy:
      case Health::kCold:
        TSAD_RETURN_IF_ERROR(reader.GetStringView(&frame->state_blob));
        break;
      case Health::kQuarantined: {
        TSAD_RETURN_IF_ERROR(reader.GetStringView(&frame->state_blob));
        std::uint64_t checkpoint_out, pending_count, retries, remaining,
            cause_code;
        TSAD_RETURN_IF_ERROR(reader.GetU64(&checkpoint_out));
        if (checkpoint_out != out_count) {
          return Status::InvalidArgument(
              "snapshot has a quarantined stream off its checkpoint");
        }
        TSAD_RETURN_IF_ERROR(reader.GetCount(8, &pending_count));
        TSAD_RETURN_IF_ERROR(reader.GetBytes(
            8 * static_cast<std::size_t>(pending_count), &frame->pending));
        TSAD_RETURN_IF_ERROR(reader.GetU64(&retries));
        TSAD_RETURN_IF_ERROR(reader.GetU64(&remaining));
        TSAD_RETURN_IF_ERROR(reader.GetU64(&cause_code));
        std::string cause_message;
        TSAD_RETURN_IF_ERROR(reader.GetString(&cause_message));
        if (cause_code == 0 ||
            cause_code > static_cast<std::uint64_t>(kLastStatusCode)) {
          return Status::InvalidArgument(
              "snapshot has a quarantined stream without a cause");
        }
        state->saved_out = static_cast<std::size_t>(checkpoint_out);
        state->retries.store(static_cast<int>(retries),
                             std::memory_order_relaxed);
        state->next_retry_pump = epoch + remaining;
        state->status = Status(static_cast<StatusCode>(cause_code),
                               std::move(cause_message));
        break;
      }
      case Health::kFailed:
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
      case Health::kHealthy: {
        TSAD_ASSIGN_OR_RETURN(
            state.detector,
            BuildDetector(state.spec, state.train_length, state.id));
        TSAD_RETURN_IF_ERROR(state.detector->Restore(frame.state_blob));
        if (config_.recovery.max_retries > 0) {  // the first recovery point
          state.saved.assign(frame.state_blob);
          state.saved_out = state.out.size();
        }
        state.footprint.store(state.detector->MemoryFootprint(),
                              std::memory_order_relaxed);
        break;
      }
      case Health::kCold:
        state.saved.assign(frame.state_blob);
        state.saved_out = state.out.size();
        break;
      case Health::kQuarantined: {
        state.saved.assign(frame.state_blob);
        state.pending.resize(frame.pending.size() / 8);
        ByteReader pending(frame.pending);
        TSAD_RETURN_IF_ERROR(
            pending.GetWords(state.pending.data(), state.pending.size()));
        break;
      }
      case Health::kFailed:
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
    if (frame.health == Health::kCold) {
      restored_cold_bytes += state.saved.size();
    }
  }
  streams_ = std::move(restored);
  live_bytes_.fetch_add(restored_live_bytes, std::memory_order_relaxed);
  cold_bytes_.fetch_add(restored_cold_bytes, std::memory_order_relaxed);
  return Status::OK();
}

std::string DetectorTypeKey(std::string_view spec) {
  const std::size_t colon = spec.find(':');
  std::string key(spec.substr(0, colon));
  if (key == "resilient" && colon != std::string_view::npos) {
    const std::size_t inner_end = spec.find(':', colon + 1);
    key += ':';
    key += spec.substr(colon + 1, inner_end - colon - 1);
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
    // Tally by spec, which a fleet repeats across many streams, and
    // fold the few distinct specs into type keys: no string per stream.
    // The views point into registered streams, so the lock outlives them.
    std::map<std::string_view, DetectorTypeStats> by_spec;
    for (const auto& [id, state] : streams_) {
      switch (state->GetHealth()) {
        case Health::kCold:
          ++out.streams_cold;
          break;
        case Health::kQuarantined:
          ++out.streams_quarantined;
          break;
        default:
          break;
      }
      DetectorTypeStats& spec = by_spec[state->spec];
      ++spec.streams;
      spec.bytes += state->footprint.load(std::memory_order_relaxed);
    }
    for (const auto& [spec, tally] : by_spec) {
      DetectorTypeStats& type = out.detector_memory[DetectorTypeKey(spec)];
      type.streams += tally.streams;
      type.bytes += tally.bytes;
    }
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  out.pumps = pumps_;
  if (!pump_ring_.empty()) {
    // Nearest rank: the ceil(0.99 n)-th smallest, so the slowest of
    // fewer than 100 pumps is the p99.
    std::vector<double> window = pump_ring_;
    const std::size_t rank = (99 * window.size() + 99) / 100 - 1;
    std::nth_element(window.begin(),
                     window.begin() + static_cast<std::ptrdiff_t>(rank),
                     window.end());
    out.p99_pump_seconds = window[rank];
  }
  return out;
}

std::size_t ShardedEngine::num_streams() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return streams_.size();
}

}  // namespace tsad
