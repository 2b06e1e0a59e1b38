// Chaos harness for the serving survival layer: a multi-thousand-stream
// run with every serving fault active at once — detectors that error
// mid-stream, injected deadline storms, producer bursts that overflow
// the shard queues, a memory budget tight enough to force cold
// eviction churn, one tenant pinned at its admission quota, dirty
// (NaN-ridden) inputs on the resilient streams, and a mid-run failover
// through Snapshot/Restore with corrupted-blob negative tests.
//
// The harness records, per stream, exactly the points the engine
// accepted, and at the end asserts the survival invariants:
//
//  * zero cross-stream contamination: every stream's final scores are
//    byte-identical to the batch detector run over that stream's own
//    accepted points — through quarantine, recovery, eviction, thaw
//    and failover;
//  * memory stays at or under the budget after every pump;
//  * every quarantine episode ends in recovery within the retry bound
//    (no stream is ever permanently lost to a transient fault);
//  * every fault path actually fired (a chaos run that exercised
//    nothing is a failed run);
//  * corrupted failover blobs are rejected atomically — a failed
//    Restore leaves the target engine empty, never half-populated.
//
// Usage: bench_chaos_serving [--smoke] [--threads N] [--seed S]
// Full mode writes BENCH_chaos_serving.json; --smoke runs a reduced
// matrix for CI (ctest -L chaos) and writes nothing.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "detectors/registry.h"
#include "robustness/fault_injector.h"
#include "robustness/sanitize.h"
#include "serving/admission.h"
#include "serving/engine.h"
#include "serving/online_adapters.h"

namespace {

using namespace tsad;

std::string StreamId(std::size_t s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "chaos-%05zu", s);
  return buf;
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The OnlineSanitizer contract, restated independently: causal LOCF
// over non-finite and sentinel values, 0.0 before the first good point.
Series CausalSanitize(const Series& x) {
  Series out;
  out.reserve(x.size());
  double last_good = 0.0;
  bool have_good = false;
  for (double v : x) {
    if (!std::isfinite(v) || v == kDefaultSentinel) {
      out.push_back(have_good ? last_good : 0.0);
    } else {
      last_good = v;
      have_good = true;
      out.push_back(v);
    }
  }
  return out;
}

// PriorityQuotaPolicy with the critical class waved through
// unconditionally. The stock policy's fill ceilings deny BEFORE the
// queue can overflow (the ladder's ADMIT rung preempts SHED), so to
// exercise the queue-full shed path the burst needs traffic that
// admission never touches — exactly what an operator bypassing
// admission for pager-critical streams would configure.
class CriticalBypassPolicy : public AdmissionPolicy {
 public:
  explicit CriticalBypassPolicy(PriorityQuotaConfig config)
      : inner_(std::move(config)) {}
  AdmissionDecision Admit(const AdmissionRequest& request) const override {
    if (request.priority == StreamPriority::kCritical) {
      return AdmissionDecision::kAdmit;
    }
    return inner_.Admit(request);
  }

 private:
  PriorityQuotaPolicy inner_;
};

struct Tally {
  std::uint64_t denied = 0, shed = 0, dropped = 0;
  std::uint64_t quarantines = 0, recoveries = 0, recovery_failures = 0;
  std::uint64_t cold_evictions = 0, thaws = 0;

  void Add(const ServingStats& s) {
    denied += s.points_denied;
    shed += s.points_shed;
    dropped += s.points_dropped;
    quarantines += s.quarantines;
    recoveries += s.recoveries;
    recovery_failures += s.recovery_failures;
    cold_evictions += s.cold_evictions;
    thaws += s.thaws;
  }
};

int Fail(const char* what) {
  std::printf("CHAOS FAIL: %s\n", what);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitThreadsFromArgs(&argc, argv);
  const bool smoke = bench::ConsumeFlag(&argc, argv, "--smoke");
  uint64_t seed = 20220814;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    }
  }

  const std::size_t kStreams = smoke ? 320 : 5000;
  const std::size_t kPoints = smoke ? 96 : 160;
  const std::size_t kBatch = 8;  // points per stream per pump
  const std::size_t kShards = 8;
  const std::size_t kTenants = 8;
  const std::size_t kBatches = kPoints / kBatch;
  const std::size_t kBurstBatch = kBatches / 2;       // 3x producer burst
  const std::size_t kIdleAfter = kBatches * 3 / 5;    // s%5==0 go idle
  const std::size_t kFailoverBatch = kBatches * 7 / 10;

  bench::PrintHeader(
      "Chaos: serving survival under compound faults (" +
      std::to_string(kStreams) + " streams x " + std::to_string(kPoints) +
      " points)");

  // --- Per-stream synthetic data; every 7th stream is served through
  // the resilient: wrapper and gets NaN-corrupted input to harden, and
  // another seventh runs bounded-memory FLOSS so the eviction/thaw and
  // quarantine/recovery paths also cover a ring-buffer detector whose
  // snapshots carry a pruned diagonal frontier.
  auto spec_of = [](std::size_t s) {
    if (s % 7 == 2) return std::string("resilient:zscore:w=24");
    if (s % 7 == 4) return std::string("floss:16:64");
    return std::string("zscore:w=24");
  };
  // The batch reference for each stream: resilient streams are served
  // through the causal OnlineSanitizer, whose contract is "the inner
  // batch detector over the sanitized input", so their reference spec
  // is the INNER detector (the input is sanitized below).
  auto batch_spec_of = [&spec_of](std::size_t s) {
    return s % 7 == 2 ? std::string("zscore:w=24") : spec_of(s);
  };
  std::vector<Series> data(kStreams);
  Rng master(seed);
  for (std::size_t s = 0; s < kStreams; ++s) {
    Rng rng = master.Fork(s);
    Series& x = data[s];
    x.reserve(kPoints);
    const double amp = 1.0 + static_cast<double>(s % 5);
    for (std::size_t t = 0; t < kPoints; ++t) {
      x.push_back(amp * std::sin(0.26 * static_cast<double>(t) +
                                 static_cast<double>(s % 17)) +
                  rng.Gaussian(0.0, 0.3));
    }
    if (s % 7 == 2) {
      FaultSpec nans;
      nans.type = FaultType::kNanMissing;
      nans.severity = 0.05;
      x = FaultInjector(seed + s).Add(nans).Apply(x);
    }
  }

  // --- Deterministic per-stream fault schedules, owned HERE so they
  // survive every detector rebuild (recovery, thaw, failover).
  ServingFaultPlan plan;
  plan.detector_error_rate = 0.03;
  plan.deadline_storm_rate = 0.03;
  plan.horizon = kPoints;
  auto fault_states = std::make_shared<
      std::map<std::string, std::shared_ptr<ServingFaultState>>>();
  std::size_t scheduled_faults = 0;
  for (std::size_t s = 0; s < kStreams; ++s) {
    auto state = std::make_shared<ServingFaultState>(seed, StreamId(s), plan);
    scheduled_faults += (state->detector_error_scheduled() ? 1 : 0) +
                        (state->deadline_storm_scheduled() ? 1 : 0);
    (*fault_states)[StreamId(s)] = state;
  }

  // --- Engine config: every rung of the ladder armed.
  ServingConfig config;
  config.num_shards = kShards;
  // Normal load fits with 1.5x headroom; the 3x burst does not (kShed).
  config.queue_capacity = kStreams * kBatch * 3 / (kShards * 2);
  config.overflow = OverflowPolicy::kShed;
  config.recovery.max_retries = 3;
  PriorityQuotaConfig quotas;
  // Pin one tenant at ~80% of its per-pump demand: sustained denials.
  quotas.tenant_quota["tenant-3"] = kStreams / kTenants * kBatch * 4 / 5;
  config.admission = std::make_shared<CriticalBypassPolicy>(quotas);
  config.detector_decorator =
      [fault_states](std::unique_ptr<OnlineDetector> inner,
                     const std::string& id)
      -> Result<std::unique_ptr<OnlineDetector>> {
    auto it = fault_states->find(id);
    if (it == fault_states->end()) {
      return Status::Internal("no fault schedule for stream '" + id + "'");
    }
    return std::unique_ptr<OnlineDetector>(
        std::make_unique<ChaosOnlineDetector>(std::move(inner), it->second));
  };
  // Budget at 60% of the projected all-hot footprint forces steady
  // eviction churn while leaving room for the unevictable kCritical
  // quarter of the fleet.
  auto probe_footprint = [&](const std::string& spec) -> std::size_t {
    Result<std::unique_ptr<OnlineDetector>> probe =
        MakeOnlineDetector(spec, 0);
    if (!probe.ok()) return 0;
    std::vector<ScoredPoint> sink;
    for (std::size_t t = 0; t < kPoints; ++t) {
      if (!(*probe)->Observe(0.5, &sink).ok()) return 0;
    }
    return (*probe)->MemoryFootprint();
  };
  // The fleet mixes detector types with very different footprints
  // (the floss ring dwarfs a z-score window), so the all-hot projection
  // sums one per-spec probe over the actual population.
  std::map<std::string, std::size_t> footprint_of;
  std::size_t projected_footprint = 0;
  for (std::size_t s = 0; s < kStreams; ++s) {
    const std::string spec = spec_of(s);
    auto it = footprint_of.find(spec);
    if (it == footprint_of.end()) {
      it = footprint_of.emplace(spec, probe_footprint(spec)).first;
    }
    if (it->second == 0) return Fail("cannot build probe detector");
    projected_footprint += it->second;
  }
  config.memory_budget_bytes = projected_footprint * 3 / 5;

  auto engine = std::make_unique<ShardedEngine>(config);
  for (std::size_t s = 0; s < kStreams; ++s) {
    StreamOptions options;
    options.priority = static_cast<StreamPriority>(s % 4);
    options.tenant = "tenant-" + std::to_string(s % kTenants);
    const Status added = engine->AddStream(StreamId(s), spec_of(s), options);
    if (!added.ok()) {
      std::printf("AddStream: %s\n", added.ToString().c_str());
      return 1;
    }
  }

  // --- Drive. Per stream we record exactly what the engine accepted;
  // that recorded series is the batch-comparison ground truth.
  std::vector<Series> accepted(kStreams);
  Tally tally;
  std::uint64_t push_errors = 0;
  std::uint64_t budget_violations = 0;
  std::size_t peak_memory = 0;
  bool failover_ok = false;
  bool truncated_rejected = false;
  std::size_t corrupt_rejected = 0, corrupt_attempts = 0;

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t b = 0; b < kBatches; ++b) {
    const std::size_t reps = b == kBurstBatch ? 3 : 1;
    for (std::size_t r = 0; r < reps; ++r) {
      for (std::size_t s = 0; s < kStreams; ++s) {
        if (b >= kIdleAfter && s % 5 == 0) continue;  // idle fifth
        const std::string id = StreamId(s);
        for (std::size_t t = b * kBatch; t < (b + 1) * kBatch; ++t) {
          const Status pushed = engine->Push(id, data[s][t]);
          if (pushed.ok()) {
            accepted[s].push_back(data[s][t]);
          } else if (pushed.code() != StatusCode::kResourceExhausted) {
            ++push_errors;  // denial/shed is expected; anything else not
          }
        }
      }
    }
    const Status pumped = engine->Pump();
    if (!pumped.ok()) {
      std::printf("Pump: %s\n", pumped.ToString().c_str());
      return 1;
    }
    const ServingStats stats = engine->stats();
    peak_memory = std::max(peak_memory, static_cast<std::size_t>(
                                            stats.memory_bytes));
    if (stats.memory_bytes > config.memory_budget_bytes) {
      ++budget_violations;
    }

    if (b == kFailoverBatch) {
      // Mid-run failover: snapshot, reject damaged blobs, continue on a
      // restored twin. The fault schedules live in the harness, so a
      // stream whose fault already fired does not refire after restore.
      Result<std::string> snap = engine->Snapshot();
      if (!snap.ok()) {
        std::printf("Snapshot: %s\n", snap.status().ToString().c_str());
        return 1;
      }
      {  // truncation must always be rejected, and rejected atomically
        ShardedEngine damaged(config);
        const std::string truncated =
            snap->substr(0, snap->size() - snap->size() / 10);
        truncated_rejected = !damaged.Restore(truncated).ok() &&
                             damaged.num_streams() == 0;
      }
      for (std::size_t k = 0; k < 8; ++k) {  // flipped payload bytes
        ShardedEngine damaged(config);
        ++corrupt_attempts;
        const Status restored =
            damaged.Restore(CorruptBlob(*snap, seed + k, 32));
        if (!restored.ok() && damaged.num_streams() == 0) {
          ++corrupt_rejected;
        }
      }
      tally.Add(engine->stats());  // bank the first engine's counters
      auto restored_engine = std::make_unique<ShardedEngine>(config);
      const Status restored = restored_engine->Restore(*snap);
      if (!restored.ok()) {
        std::printf("Restore: %s\n", restored.ToString().c_str());
        return 1;
      }
      failover_ok = restored_engine->num_streams() == kStreams;
      engine = std::move(restored_engine);
    }
  }

  // --- Finish every stream and verify against batch, stream by stream.
  std::size_t finish_failures = 0, mismatches = 0;
  for (std::size_t s = 0; s < kStreams; ++s) {
    Result<std::vector<double>> scores = engine->FinishStream(StreamId(s));
    // The engine served spec_of(s); the reference is the plain batch
    // detector over the accepted points — causally sanitized first for
    // resilient streams, per the OnlineSanitizer contract.
    const Series& reference_input =
        s % 7 == 2 ? CausalSanitize(accepted[s]) : accepted[s];
    Result<std::unique_ptr<AnomalyDetector>> batch =
        MakeDetector(batch_spec_of(s));
    if (!batch.ok()) return Fail("cannot build batch detector");
    Result<std::vector<double>> expected =
        (*batch)->Score(reference_input, 0);
    if (!scores.ok()) {
      // Errors are part of the replay contract too: an admission-starved
      // floss stream may end with fewer points than one subsequence, and
      // must then surface the SAME too-short error the batch path does.
      if (!expected.ok() &&
          expected.status().code() == scores.status().code()) {
        continue;
      }
      if (finish_failures++ == 0) {
        std::printf("first FinishStream failure (%s, %zu accepted): %s\n",
                    StreamId(s).c_str(), accepted[s].size(),
                    scores.status().ToString().c_str());
      }
      continue;
    }
    if (!expected.ok()) return Fail("batch detector failed");
    if (!BitIdentical(*scores, *expected)) {
      if (mismatches++ == 0) {
        std::printf("first mismatch on %s (%zu accepted points)\n",
                    StreamId(s).c_str(), accepted[s].size());
      }
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  tally.Add(engine->stats());  // second engine's counters

  std::uint64_t total_accepted = 0;
  for (const Series& a : accepted) total_accepted += a.size();

  std::printf("accepted  : %llu points (%llu denied, %llu shed)\n",
              static_cast<unsigned long long>(total_accepted),
              static_cast<unsigned long long>(tally.denied),
              static_cast<unsigned long long>(tally.shed));
  std::printf("faults    : %zu scheduled; %llu quarantines, %llu recoveries"
              " (%llu failed attempts)\n",
              scheduled_faults,
              static_cast<unsigned long long>(tally.quarantines),
              static_cast<unsigned long long>(tally.recoveries),
              static_cast<unsigned long long>(tally.recovery_failures));
  std::printf("memory    : budget %zu B, peak %zu B, %llu evictions,"
              " %llu thaws\n",
              config.memory_budget_bytes, peak_memory,
              static_cast<unsigned long long>(tally.cold_evictions),
              static_cast<unsigned long long>(tally.thaws));
  std::printf("failover  : %s; truncated blob %s, %zu/%zu corrupted blobs"
              " rejected\n",
              failover_ok ? "restored" : "FAILED",
              truncated_rejected ? "rejected" : "NOT rejected",
              corrupt_rejected, corrupt_attempts);
  std::printf("verify    : %zu streams, %zu mismatches, %zu finish"
              " failures, %.2f s\n",
              kStreams, mismatches, finish_failures, seconds);

  // --- The survival invariants.
  if (push_errors != 0) return Fail("unexpected Push error status");
  if (finish_failures != 0) return Fail("stream permanently lost");
  if (mismatches != 0) {
    return Fail("cross-stream contamination or replay divergence");
  }
  if (budget_violations != 0) return Fail("memory budget exceeded");
  if (tally.quarantines == 0) return Fail("no quarantine ever fired");
  if (tally.recoveries != tally.quarantines) {
    return Fail("a quarantine episode did not end in recovery");
  }
  if (tally.denied == 0) return Fail("admission control never fired");
  if (tally.shed == 0) return Fail("queue-full burst never shed");
  if (tally.cold_evictions == 0 || tally.thaws == 0) {
    return Fail("memory budget never forced eviction churn");
  }
  if (!failover_ok) return Fail("failover restore failed");
  if (!truncated_rejected) return Fail("truncated snapshot accepted");
  if (corrupt_rejected == 0) return Fail("no corrupted snapshot rejected");

  std::printf("\nall survival invariants held\n");

  if (!smoke) {
    bench::WriteBenchJson(
        "chaos_serving",
        {
            {"streams", static_cast<double>(kStreams)},
            {"points_per_stream", static_cast<double>(kPoints)},
            {"accepted_points", static_cast<double>(total_accepted)},
            {"points_denied", static_cast<double>(tally.denied)},
            {"points_shed", static_cast<double>(tally.shed)},
            {"quarantines", static_cast<double>(tally.quarantines)},
            {"recoveries", static_cast<double>(tally.recoveries)},
            {"recovery_failures",
             static_cast<double>(tally.recovery_failures)},
            {"cold_evictions", static_cast<double>(tally.cold_evictions)},
            {"thaws", static_cast<double>(tally.thaws)},
            {"memory_budget_bytes",
             static_cast<double>(config.memory_budget_bytes)},
            {"peak_memory_bytes", static_cast<double>(peak_memory)},
            {"corrupt_blobs_rejected",
             static_cast<double>(corrupt_rejected)},
            {"seconds", seconds},
            {"points_per_sec",
             seconds > 0.0 ? static_cast<double>(total_accepted) / seconds
                           : 0.0},
        });
  }
  return 0;
}
