#include "serving/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/series.h"
#include "common/wire.h"
#include "detectors/registry.h"
#include "serving/online_adapters.h"
#include "serving/replay.h"

namespace tsad {
namespace {

// The pinned engine snapshot (PinnedEngine below): its size and FNV-1a
// hash, and the hash of the Status list its truncations restore to.
constexpr std::size_t kPinnedSnapshotBytes = 76113;
constexpr std::uint64_t kPinnedSnapshotFnv1a = 493796325457407259ull;
constexpr std::uint64_t kPinnedTruncationStatusesFnv1a = 10743862165762380386ull;

Series MakeStream(std::size_t n, uint64_t seed) {
  Rng rng(seed);
  Series x(n);
  double level = 5.0;
  for (std::size_t i = 0; i < n; ++i) {
    level += rng.Gaussian(0.0, 0.1);
    x[i] = level + 2.0 * std::sin(0.21 * static_cast<double>(i)) +
           rng.Gaussian(0.0, 0.3);
  }
  return x;
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::vector<double> BatchScores(const std::string& spec, const Series& x,
                                std::size_t train_length) {
  auto detector = MakeDetector(spec);
  EXPECT_TRUE(detector.ok());
  auto scores = (*detector)->Score(x, train_length);
  EXPECT_TRUE(scores.ok()) << scores.status().message();
  return *scores;
}

// Restores the global thread override even if a test fails mid-way.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(std::size_t n) { SetParallelThreads(n); }
  ~ThreadCountGuard() { SetParallelThreads(0); }
};

// Replays `streams` through an engine (interleaved round-robin pushes,
// periodic pumps) and returns each stream's final scores.
std::map<std::string, std::vector<double>> RunEngine(
    const std::map<std::string, Series>& streams, const std::string& spec,
    std::size_t train_length, ServingConfig config) {
  ShardedEngine engine(config);
  std::size_t max_len = 0;
  for (const auto& [id, series] : streams) {
    EXPECT_TRUE(engine.AddStream(id, spec, train_length).ok());
    max_len = std::max(max_len, series.size());
  }
  for (std::size_t t = 0; t < max_len; ++t) {
    for (const auto& [id, series] : streams) {
      if (t < series.size()) {
        EXPECT_TRUE(engine.Push(id, series[t]).ok());
      }
    }
    if (t % 64 == 63) {
      EXPECT_TRUE(engine.Pump().ok());
    }
  }
  std::map<std::string, std::vector<double>> out;
  for (const auto& [id, series] : streams) {
    auto scores = engine.FinishStream(id);
    EXPECT_TRUE(scores.ok()) << id << ": " << scores.status().message();
    if (scores.ok()) out[id] = std::move(*scores);
  }
  return out;
}

std::map<std::string, Series> TestStreams(std::size_t count, std::size_t n) {
  std::map<std::string, Series> streams;
  for (std::size_t s = 0; s < count; ++s) {
    streams["stream-" + std::to_string(s)] = MakeStream(n, 1000 + s);
  }
  return streams;
}

// Pumps, then checks the engine's live-memory total against the
// per-type rollup stats() sums from every registered stream.
void PumpAndExpectMemoryMatchesRollup(ShardedEngine& engine) {
  ASSERT_TRUE(engine.Pump().ok());
  const ServingStats stats = engine.stats();
  std::uint64_t rollup = 0;
  for (const auto& [type, memory] : stats.detector_memory) {
    rollup += memory.bytes;
  }
  EXPECT_EQ(stats.memory_bytes, rollup) << "after pump " << stats.pumps;
}

TEST(ShardedEngineTest, ReplayIsByteIdenticalToBatchAtOneAndEightThreads) {
  const std::string spec = "zscore:w=48";
  const auto streams = TestStreams(6, 400);

  std::map<std::string, std::vector<double>> batch;
  for (const auto& [id, series] : streams) {
    batch[id] = BatchScores(spec, series, 0);
  }

  for (std::size_t threads : {1u, 8u}) {
    ThreadCountGuard guard(threads);
    ServingConfig config;
    config.num_shards = 4;
    const auto scored = RunEngine(streams, spec, 0, config);
    ASSERT_EQ(scored.size(), streams.size()) << "threads=" << threads;
    for (const auto& [id, scores] : scored) {
      EXPECT_TRUE(BitEqual(scores, batch.at(id)))
          << id << " threads=" << threads;
    }
  }
}

TEST(ShardedEngineTest, StreamingDiscordStreamsVerifyAcrossThreadCounts) {
  const std::string spec = "streaming:m=16";
  const auto streams = TestStreams(3, 220);
  for (std::size_t threads : {1u, 8u}) {
    ThreadCountGuard guard(threads);
    const auto scored = RunEngine(streams, spec, 0, ServingConfig{});
    for (const auto& [id, scores] : scored) {
      EXPECT_TRUE(BitEqual(scores, BatchScores(spec, streams.at(id), 0)))
          << id << " threads=" << threads;
    }
  }
}

TEST(ShardedEngineTest, ShedRejectsOverflowWithoutCorruptingOtherStreams) {
  ServingConfig config;
  config.num_shards = 1;  // both streams share the only queue
  config.queue_capacity = 8;
  config.overflow = OverflowPolicy::kShed;
  ShardedEngine engine(config);
  ASSERT_TRUE(engine.AddStream("flooded", "zscore:w=16").ok());
  ASSERT_TRUE(engine.AddStream("healthy", "zscore:w=16").ok());

  // Flood without pumping: pushes beyond capacity must shed.
  const Series flood = MakeStream(100, 1);
  Series accepted_flood;
  std::size_t shed = 0;
  for (double v : flood) {
    const Status s = engine.Push("flooded", v);
    if (s.ok()) {
      accepted_flood.push_back(v);
    } else {
      EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
      EXPECT_NE(s.message().find("flooded"), std::string::npos);
      ++shed;
    }
  }
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(engine.stats().points_shed, shed);
  // Shedding is backpressure, not failure: the stream stays healthy.
  EXPECT_TRUE(engine.StreamStatus("flooded").ok());

  // Drain the backlog, then run the healthy stream normally (a pump
  // after each push keeps the shared queue empty).
  ASSERT_TRUE(engine.Pump().ok());
  const Series healthy = MakeStream(150, 2);
  for (double v : healthy) {
    ASSERT_TRUE(engine.Push("healthy", v).ok());
    ASSERT_TRUE(engine.Pump().ok());
  }

  auto healthy_scores = engine.FinishStream("healthy");
  ASSERT_TRUE(healthy_scores.ok());
  EXPECT_TRUE(BitEqual(*healthy_scores, BatchScores("zscore:w=16", healthy, 0)));

  // The flooded stream scores exactly the points that were accepted.
  auto flood_scores = engine.FinishStream("flooded");
  ASSERT_TRUE(flood_scores.ok());
  EXPECT_TRUE(
      BitEqual(*flood_scores, BatchScores("zscore:w=16", accepted_flood, 0)));
}

TEST(ShardedEngineTest, BlockPolicyNeverSheds) {
  ServingConfig config;
  config.num_shards = 1;
  config.queue_capacity = 4;  // tiny: forces inline drains
  config.overflow = OverflowPolicy::kBlock;
  ShardedEngine engine(config);
  ASSERT_TRUE(engine.AddStream("s", "zscore:w=16").ok());
  const Series x = MakeStream(200, 3);
  for (double v : x) ASSERT_TRUE(engine.Push("s", v).ok());
  EXPECT_EQ(engine.stats().points_shed, 0u);
  auto scores = engine.FinishStream("s");
  ASSERT_TRUE(scores.ok());
  EXPECT_TRUE(BitEqual(*scores, BatchScores("zscore:w=16", x, 0)));
}

TEST(ShardedEngineTest, ExpiredStreamDeadlineSticksAndDropsQueuedPoints) {
  ServingConfig config;
  config.num_shards = 1;
  config.queue_capacity = 512;
  config.stream_deadline = std::chrono::nanoseconds(1);  // already expired
  ShardedEngine engine(config);
  ASSERT_TRUE(engine.AddStream("s", "zscore:w=16").ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine.Push("s", static_cast<double>(i)).ok());
  }
  ASSERT_TRUE(engine.Pump().ok());  // stream failure does not fail the pump

  const Status sticky = engine.StreamStatus("s");
  EXPECT_EQ(sticky.code(), StatusCode::kDeadlineExceeded);
  // Later pushes are rejected with the sticky status...
  EXPECT_EQ(engine.Push("s", 1.0).code(), StatusCode::kDeadlineExceeded);
  // ...and FinishStream surfaces it instead of partial scores.
  EXPECT_EQ(engine.FinishStream("s").status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_GT(engine.stats().points_dropped, 0u);
}

TEST(ShardedEngineTest, SnapshotRestoreMidReplayContinuesBitIdentically) {
  const std::string spec = "streaming:m=12";
  const auto streams = TestStreams(4, 260);

  ServingConfig config;
  config.num_shards = 3;
  ShardedEngine first(config);
  for (const auto& [id, series] : streams) {
    ASSERT_TRUE(first.AddStream(id, spec).ok());
  }
  for (std::size_t t = 0; t < 130; ++t) {
    for (const auto& [id, series] : streams) {
      ASSERT_TRUE(first.Push(id, series[t]).ok());
    }
  }
  auto blob = first.Snapshot();  // pumps internally before serializing
  ASSERT_TRUE(blob.ok()) << blob.status().message();

  // Restore into a DIFFERENT topology: placement is recomputed.
  ServingConfig config2;
  config2.num_shards = 5;
  ShardedEngine second(config2);
  ASSERT_TRUE(second.Restore(*blob).ok());
  EXPECT_EQ(second.num_streams(), streams.size());

  for (std::size_t t = 130; t < 260; ++t) {
    for (const auto& [id, series] : streams) {
      ASSERT_TRUE(second.Push(id, series[t]).ok());
    }
  }
  for (const auto& [id, series] : streams) {
    auto scores = second.FinishStream(id);
    ASSERT_TRUE(scores.ok()) << id;
    EXPECT_TRUE(BitEqual(*scores, BatchScores(spec, series, 0))) << id;
  }
}

TEST(ShardedEngineTest, RestoreRequiresEmptyEngineAndValidBlob) {
  ShardedEngine engine;
  ASSERT_TRUE(engine.AddStream("s", "zscore:w=16").ok());
  auto blob = engine.Snapshot();
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(engine.Restore(*blob).code(), StatusCode::kFailedPrecondition);

  ShardedEngine fresh;
  EXPECT_FALSE(fresh.Restore("not a snapshot").ok());
  EXPECT_EQ(fresh.num_streams(), 0u);
}

TEST(ShardedEngineTest, ConcurrentProducersKeepStreamsIndependent) {
  ThreadCountGuard guard(4);
  ServingConfig config;
  config.num_shards = 4;
  config.overflow = OverflowPolicy::kBlock;  // never lose a point
  config.queue_capacity = 64;
  ShardedEngine engine(config);

  constexpr std::size_t kStreams = 8;
  std::vector<Series> data;
  for (std::size_t s = 0; s < kStreams; ++s) {
    ASSERT_TRUE(
        engine.AddStream("worker-" + std::to_string(s), "zscore:w=24").ok());
    data.push_back(MakeStream(300, 500 + s));
  }

  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < kStreams; ++s) {
    producers.emplace_back([&engine, &data, s] {
      const std::string id = "worker-" + std::to_string(s);
      for (double v : data[s]) {
        // kBlock: Push may drain inline but never fails.
        ASSERT_TRUE(engine.Push(id, v).ok());
      }
    });
  }
  for (auto& t : producers) t.join();
  PumpAndExpectMemoryMatchesRollup(engine);

  for (std::size_t s = 0; s < kStreams; ++s) {
    auto scores = engine.FinishStream("worker-" + std::to_string(s));
    ASSERT_TRUE(scores.ok());
    EXPECT_TRUE(BitEqual(*scores, BatchScores("zscore:w=24", data[s], 0)))
        << "worker-" << s;
  }
  EXPECT_EQ(engine.stats().points_in, kStreams * 300);
  EXPECT_EQ(engine.stats().points_shed, 0u);
}

TEST(ShardedEngineTest, RegistryAndLifecycleErrors) {
  ShardedEngine engine;
  ASSERT_TRUE(engine.AddStream("s", "zscore:w=16").ok());

  const Status dup = engine.AddStream("s", "zscore:w=16");
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);

  // Detector construction errors surface at AddStream, not Push.
  EXPECT_EQ(engine.AddStream("t", "zscoer").code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.AddStream("u", "discord:m=64").code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(engine.AddStream("v", "cusum", 0).code(),
            StatusCode::kFailedPrecondition);

  EXPECT_EQ(engine.Push("missing", 1.0).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.FinishStream("missing").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.StreamStatus("missing").code(), StatusCode::kNotFound);

  // FinishStream removes the stream; a second finish is NotFound.
  ASSERT_TRUE(engine.Push("s", 1.0).ok());
  ASSERT_TRUE(engine.FinishStream("s").ok());
  EXPECT_EQ(engine.FinishStream("s").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.num_streams(), 0u);
}

TEST(ShardedEngineTest, StatsCountPointsAndPumps) {
  ShardedEngine engine;
  ASSERT_TRUE(engine.AddStream("s", "zscore:w=8").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(engine.Push("s", static_cast<double>(i)).ok());
  }
  ASSERT_TRUE(engine.Pump().ok());
  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.points_in, 20u);
  EXPECT_EQ(stats.points_scored, 20u);
  EXPECT_EQ(stats.pumps, 1u);
  EXPECT_GT(stats.p99_pump_seconds, 0.0);
}

TEST(ShardedEngineTest, AdmissionPolicyDeniesWithoutHarmingTheStream) {
  ServingConfig config;
  config.num_shards = 1;
  config.queue_capacity = 100;
  PriorityQuotaConfig quotas;  // batch denied at half fill
  config.admission = std::make_shared<PriorityQuotaPolicy>(quotas);
  ShardedEngine engine(config);

  StreamOptions batch_stream;
  batch_stream.priority = StreamPriority::kBatch;
  ASSERT_TRUE(engine.AddStream("bulk", "zscore:w=16", batch_stream).ok());

  const Series x = MakeStream(100, 7);
  Series accepted;
  std::uint64_t denied = 0;
  for (double v : x) {
    const Status s = engine.Push("bulk", v);
    if (s.ok()) {
      accepted.push_back(v);
    } else {
      EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
      EXPECT_NE(s.message().find("admission"), std::string::npos);
      ++denied;
    }
  }
  // The batch ceiling is 0.5: the second half of the flood is denied.
  EXPECT_EQ(denied, 50u);
  EXPECT_EQ(engine.stats().points_denied, denied);
  EXPECT_EQ(engine.stats().points_shed, 0u);
  // Denial is backpressure, not failure.
  EXPECT_TRUE(engine.StreamStatus("bulk").ok());
  auto scores = engine.FinishStream("bulk");
  ASSERT_TRUE(scores.ok());
  EXPECT_TRUE(BitEqual(*scores, BatchScores("zscore:w=16", accepted, 0)));
}

TEST(ShardedEngineTest, TenantQuotaLimitsInFlightBacklog) {
  ServingConfig config;
  config.num_shards = 1;
  config.queue_capacity = 1000;
  PriorityQuotaConfig quotas;
  quotas.tenant_quota["noisy"] = 10;
  config.admission = std::make_shared<PriorityQuotaPolicy>(quotas);
  ShardedEngine engine(config);

  StreamOptions noisy;
  noisy.priority = StreamPriority::kCritical;  // quota binds even here
  noisy.tenant = "noisy";
  ASSERT_TRUE(engine.AddStream("a", "zscore:w=16", noisy).ok());
  ASSERT_TRUE(engine.AddStream("b", "zscore:w=16", StreamOptions{}).ok());

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine.Push("a", static_cast<double>(i)).ok());
  }
  // The tenant is at quota; the default tenant is not.
  EXPECT_EQ(engine.Push("a", 11.0).code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(engine.Push("b", 1.0).ok());
  // Draining the backlog frees the quota.
  ASSERT_TRUE(engine.Pump().ok());
  EXPECT_TRUE(engine.Push("a", 11.0).ok());
}

// Wraps an inner adapter and fails (once) when the inner detector has
// observed exactly `fail_at` points, BEFORE forwarding — the inner
// state is untouched by the failed call, so recovery replay is clean.
class FailOnceDetector : public OnlineDetector {
 public:
  FailOnceDetector(std::unique_ptr<OnlineDetector> inner, std::size_t fail_at,
                   std::shared_ptr<std::atomic<bool>> fired)
      : inner_(std::move(inner)), fail_at_(fail_at), fired_(std::move(fired)) {
    observed_ = inner_->observed();
  }
  std::string_view name() const override { return inner_->name(); }
  Status Observe(double value, std::vector<ScoredPoint>* out) override {
    if (inner_->observed() == fail_at_ && !fired_->exchange(true)) {
      return Status::Internal("injected transient failure");
    }
    const Status status = inner_->Observe(value, out);
    if (status.ok()) observed_ = inner_->observed();
    return status;
  }
  Status Flush(std::vector<ScoredPoint>* out) override {
    return inner_->Flush(out);
  }
  Result<std::string> Snapshot() const override { return inner_->Snapshot(); }
  Status Restore(std::string_view blob) override {
    const Status status = inner_->Restore(blob);
    if (status.ok()) observed_ = inner_->observed();
    return status;
  }
  std::size_t MemoryFootprint() const override {
    return inner_->MemoryFootprint();
  }

 private:
  std::unique_ptr<OnlineDetector> inner_;
  std::size_t fail_at_;
  std::shared_ptr<std::atomic<bool>> fired_;
};

// Sleeps `delay` in each Observe while `slow` is set.
class SlowDetector : public FailOnceDetector {
 public:
  SlowDetector(std::unique_ptr<OnlineDetector> inner,
               std::shared_ptr<std::atomic<bool>> slow,
               std::chrono::milliseconds delay)
      : FailOnceDetector(std::move(inner), SIZE_MAX,
                         std::make_shared<std::atomic<bool>>(false)),
        slow_(std::move(slow)),
        delay_(delay) {}
  Status Observe(double value, std::vector<ScoredPoint>* out) override {
    if (slow_->load()) std::this_thread::sleep_for(delay_);
    return FailOnceDetector::Observe(value, out);
  }

 private:
  std::shared_ptr<std::atomic<bool>> slow_;
  std::chrono::milliseconds delay_;
};

TEST(ShardedEngineTest, PumpLatencyRingStaysBounded) {
  // The p99 covers the last 256 pumps only: 8 slow pumps hold it up
  // while they are among them, and 8 more fast pumps push them out.
  constexpr std::chrono::milliseconds kDelay(50);
  auto slow = std::make_shared<std::atomic<bool>>(true);
  ServingConfig config;
  config.num_shards = 1;
  config.detector_decorator =
      [slow, kDelay](std::unique_ptr<OnlineDetector> inner,
                     const std::string&)
      -> Result<std::unique_ptr<OnlineDetector>> {
    return std::unique_ptr<OnlineDetector>(
        std::make_unique<SlowDetector>(std::move(inner), slow, kDelay));
  };
  ShardedEngine engine(config);
  ASSERT_TRUE(engine.AddStream("s", "zscore:w=8").ok());
  auto pump = [&engine](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(engine.Push("s", static_cast<double>(i)).ok());
      ASSERT_TRUE(engine.Pump().ok());
    }
  };
  pump(8);
  slow->store(false);
  pump(248);
  EXPECT_GE(engine.stats().p99_pump_seconds, 0.05);
  pump(8);
  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.pumps, 264u);
  EXPECT_LT(stats.p99_pump_seconds, 0.05);
}

TEST(ShardedEngineTest, PumpP99OfFewPumpsIsTheSlowest) {
  // Nearest rank: below 100 pumps the p99 is the slowest pump, here
  // the one of five that drains a point of the slow stream.
  constexpr std::chrono::milliseconds kDelay(20);
  auto slow = std::make_shared<std::atomic<bool>>(false);
  ServingConfig config;
  config.num_shards = 1;
  config.detector_decorator =
      [slow, kDelay](std::unique_ptr<OnlineDetector> inner,
                     const std::string&)
      -> Result<std::unique_ptr<OnlineDetector>> {
    return std::unique_ptr<OnlineDetector>(
        std::make_unique<SlowDetector>(std::move(inner), slow, kDelay));
  };
  ShardedEngine engine(config);
  ASSERT_TRUE(engine.AddStream("s", "zscore:w=8").ok());
  for (int i = 0; i < 5; ++i) {
    slow->store(i == 2);
    ASSERT_TRUE(engine.Push("s", static_cast<double>(i)).ok());
    ASSERT_TRUE(engine.Pump().ok());
  }
  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.pumps, 5u);
  EXPECT_GE(stats.p99_pump_seconds,
            std::chrono::duration<double>(kDelay).count());
}

TEST(ShardedEngineTest, QuarantineRecoversByteIdentically) {
  // The fired flag lives OUTSIDE the detector, so the failure does not
  // re-fire after recovery rebuilds the detector from its checkpoint.
  auto fired = std::make_shared<std::atomic<bool>>(false);
  ServingConfig config;
  config.num_shards = 1;
  config.recovery.max_retries = 3;
  config.detector_decorator =
      [fired](std::unique_ptr<OnlineDetector> inner, const std::string&)
      -> Result<std::unique_ptr<OnlineDetector>> {
    return std::unique_ptr<OnlineDetector>(
        std::make_unique<FailOnceDetector>(std::move(inner), 70, fired));
  };
  ShardedEngine engine(config);
  ASSERT_TRUE(engine.AddStream("s", "zscore:w=16").ok());

  const Series x = MakeStream(200, 11);
  for (std::size_t t = 0; t < x.size(); ++t) {
    ASSERT_TRUE(engine.Push("s", x[t]).ok());
    if (t % 32 == 31) {
      ASSERT_TRUE(engine.Pump().ok());
    }
  }
  // Drive pumps until the backoff elapses and recovery runs.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(engine.Pump().ok());

  EXPECT_TRUE(fired->load());
  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.quarantines, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_TRUE(engine.StreamStatus("s").ok());
  auto scores = engine.FinishStream("s");
  ASSERT_TRUE(scores.ok()) << scores.status().message();
  EXPECT_TRUE(BitEqual(*scores, BatchScores("zscore:w=16", x, 0)));
}

TEST(ShardedEngineTest, RetryBoundExhaustionFailsTheStream) {
  // A permanent fault: the decorator fails EVERY Observe at the fault
  // index, so each recovery replay hits it again until retries run out.
  ServingConfig config;
  config.num_shards = 1;
  config.recovery.max_retries = 2;
  config.detector_decorator =
      [](std::unique_ptr<OnlineDetector> inner, const std::string&)
      -> Result<std::unique_ptr<OnlineDetector>> {
    auto always = std::make_shared<std::atomic<bool>>(false);
    class FailAlways : public FailOnceDetector {
     public:
      using FailOnceDetector::FailOnceDetector;
      Status Observe(double value, std::vector<ScoredPoint>* out) override {
        if (observed() == 20) return Status::Internal("permanent fault");
        return FailOnceDetector::Observe(value, out);
      }
    };
    return std::unique_ptr<OnlineDetector>(
        std::make_unique<FailAlways>(std::move(inner), SIZE_MAX, always));
  };
  ShardedEngine engine(config);
  ASSERT_TRUE(engine.AddStream("s", "zscore:w=16").ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(engine.Push("s", static_cast<double>(i)).ok());
  }
  ASSERT_TRUE(engine.Pump().ok());  // quarantine
  // While quarantined, StreamStatus reports the cause and retry budget.
  const Status quarantined = engine.StreamStatus("s");
  EXPECT_EQ(quarantined.code(), StatusCode::kInternal);
  EXPECT_NE(quarantined.message().find("quarantined"), std::string::npos);

  for (int i = 0; i < 12; ++i) ASSERT_TRUE(engine.Pump().ok());
  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.quarantines, 1u);
  EXPECT_EQ(stats.recoveries, 0u);
  EXPECT_EQ(stats.recovery_failures, 2u);  // the retry bound
  const Status sticky = engine.StreamStatus("s");
  EXPECT_EQ(sticky.code(), StatusCode::kInternal);
  EXPECT_NE(sticky.message().find("recovery attempts"), std::string::npos);
  // Sticky failure: pushes rejected, FinishStream surfaces the cause.
  EXPECT_EQ(engine.Push("s", 1.0).code(), StatusCode::kInternal);
  EXPECT_EQ(engine.FinishStream("s").status().code(), StatusCode::kInternal);
}

TEST(ShardedEngineTest, MemoryBudgetEvictsColdAndThawsByteIdentically) {
  const std::string spec = "zscore:w=32";
  const auto streams = TestStreams(6, 300);

  ServingConfig config;
  config.num_shards = 2;
  // A budget below one warmed-up detector: after every pump all idle
  // streams are evicted to snapshots, and every push thaws one back.
  config.memory_budget_bytes = 1;
  ShardedEngine engine(config);
  for (const auto& [id, series] : streams) {
    ASSERT_TRUE(engine.AddStream(id, spec).ok());
  }
  for (std::size_t t = 0; t < 300; ++t) {
    for (const auto& [id, series] : streams) {
      ASSERT_TRUE(engine.Push(id, series[t]).ok());
    }
    if (t % 50 == 49) {
      ASSERT_TRUE(engine.Pump().ok());
    }
  }
  const ServingStats stats = engine.stats();
  EXPECT_GT(stats.cold_evictions, 0u);
  EXPECT_GT(stats.thaws, 0u);
  EXPECT_GT(stats.streams_cold, 0u);
  for (const auto& [id, series] : streams) {
    auto scores = engine.FinishStream(id);
    ASSERT_TRUE(scores.ok()) << id << ": " << scores.status().message();
    EXPECT_TRUE(BitEqual(*scores, BatchScores(spec, series, 0))) << id;
  }
}

TEST(ShardedEngineTest, CriticalStreamsAreNeverColdEvicted) {
  ServingConfig config;
  config.num_shards = 1;
  config.memory_budget_bytes = 1;
  ShardedEngine engine(config);
  StreamOptions critical;
  critical.priority = StreamPriority::kCritical;
  ASSERT_TRUE(engine.AddStream("pager", "zscore:w=16", critical).ok());
  ASSERT_TRUE(engine.AddStream("bulk", "zscore:w=16").ok());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(engine.Push("pager", static_cast<double>(i)).ok());
    ASSERT_TRUE(engine.Push("bulk", static_cast<double>(i)).ok());
  }
  ASSERT_TRUE(engine.Pump().ok());
  ASSERT_TRUE(engine.Pump().ok());  // both idle now; budget still busted
  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.streams_cold, 1u);  // bulk evicted, pager untouchable
  EXPECT_GT(stats.cold_evictions, 0u);
}

TEST(ShardedEngineTest, SnapshotCarriesErroredAndQuarantinedStreams) {
  // One failed stream (expired deadline), one quarantined stream, one
  // healthy stream — Snapshot/Restore must preserve all three fates.
  auto fired = std::make_shared<std::atomic<bool>>(false);
  ServingConfig config;
  config.num_shards = 2;
  config.recovery.max_retries = 3;
  config.detector_decorator =
      [fired](std::unique_ptr<OnlineDetector> inner, const std::string& id)
      -> Result<std::unique_ptr<OnlineDetector>> {
    if (id != "flaky") return std::unique_ptr<OnlineDetector>(std::move(inner));
    return std::unique_ptr<OnlineDetector>(
        std::make_unique<FailOnceDetector>(std::move(inner), 40, fired));
  };
  ShardedEngine engine(config);
  ASSERT_TRUE(engine.AddStream("flaky", "zscore:w=16").ok());
  ASSERT_TRUE(engine.AddStream("steady", "zscore:w=16").ok());

  const Series flaky_data = MakeStream(90, 21);
  const Series steady_data = MakeStream(90, 22);
  for (std::size_t t = 0; t < 90; ++t) {
    ASSERT_TRUE(engine.Push("flaky", flaky_data[t]).ok());
    ASSERT_TRUE(engine.Push("steady", steady_data[t]).ok());
  }
  // Snapshot's own pump quarantines flaky; its retry is one pump away.
  auto blob = engine.Snapshot();
  ASSERT_TRUE(blob.ok()) << blob.status().message();
  EXPECT_EQ(engine.stats().quarantines, 1u);
  EXPECT_EQ(engine.StreamStatus("flaky").code(), StatusCode::kInternal);

  // Restore must rebuild detectors through the SAME decorator; the
  // fired flag is already set, so recovery succeeds on the other side.
  ShardedEngine second(config);
  ASSERT_TRUE(second.Restore(*blob).ok());
  EXPECT_EQ(second.num_streams(), 2u);
  EXPECT_EQ(second.StreamStatus("flaky").code(), StatusCode::kInternal);
  EXPECT_EQ(second.stats().streams_quarantined, 1u);

  // FinishStream force-recovers the quarantined stream; both streams
  // come back byte-identical to batch.
  auto flaky_scores = second.FinishStream("flaky");
  ASSERT_TRUE(flaky_scores.ok()) << flaky_scores.status().message();
  EXPECT_TRUE(
      BitEqual(*flaky_scores, BatchScores("zscore:w=16", flaky_data, 0)));
  auto steady_scores = second.FinishStream("steady");
  ASSERT_TRUE(steady_scores.ok());
  EXPECT_TRUE(
      BitEqual(*steady_scores, BatchScores("zscore:w=16", steady_data, 0)));
}

TEST(ShardedEngineTest, SnapshotPreservesStickyFailureAcrossRestore) {
  ServingConfig config;
  config.num_shards = 1;
  config.stream_deadline = std::chrono::nanoseconds(1);  // already expired
  ShardedEngine engine(config);
  ASSERT_TRUE(engine.AddStream("doomed", "zscore:w=16").ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(engine.Push("doomed", static_cast<double>(i)).ok());
  }
  ASSERT_TRUE(engine.Pump().ok());
  ASSERT_EQ(engine.StreamStatus("doomed").code(),
            StatusCode::kDeadlineExceeded);

  auto blob = engine.Snapshot();
  ASSERT_TRUE(blob.ok());
  ServingConfig clean;  // no deadline on the restore side
  clean.num_shards = 3;
  ShardedEngine second(clean);
  ASSERT_TRUE(second.Restore(*blob).ok());
  // The failure is part of the stream's state, not the engine's config.
  EXPECT_EQ(second.StreamStatus("doomed").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(second.Push("doomed", 1.0).code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(second.FinishStream("doomed").status().code(),
            StatusCode::kDeadlineExceeded);
}

TEST(ShardedEngineTest, ColdStreamsSurviveSnapshotRestore) {
  const std::string spec = "zscore:w=24";
  const Series x = MakeStream(200, 31);
  ServingConfig config;
  config.num_shards = 1;
  config.memory_budget_bytes = 1;  // everything idle is evicted
  ShardedEngine engine(config);
  ASSERT_TRUE(engine.AddStream("s", spec).ok());
  for (std::size_t t = 0; t < 120; ++t) {
    ASSERT_TRUE(engine.Push("s", x[t]).ok());
  }
  ASSERT_TRUE(engine.Pump().ok());
  ASSERT_EQ(engine.stats().streams_cold, 1u);

  auto blob = engine.Snapshot();
  ASSERT_TRUE(blob.ok());
  ShardedEngine second(config);
  ASSERT_TRUE(second.Restore(*blob).ok());
  EXPECT_EQ(second.stats().streams_cold, 1u);
  // Pushing thaws the stream transparently and the replay contract
  // holds through evict -> snapshot -> restore -> thaw.
  for (std::size_t t = 120; t < 200; ++t) {
    ASSERT_TRUE(second.Push("s", x[t]).ok());
  }
  auto scores = second.FinishStream("s");
  ASSERT_TRUE(scores.ok()) << scores.status().message();
  EXPECT_GT(second.stats().thaws, 0u);
  EXPECT_TRUE(BitEqual(*scores, BatchScores(spec, x, 0)));
}

TEST(ShardedEngineTest, MemoryTotalMatchesRollupThroughEveryLadderRung) {
  // Every footprint change — registration, eviction, thaw, quarantine,
  // recovery, sticky failure, finish and restore — must leave the
  // engine's total equal to the per-stream rollup after each Pump.
  auto flaky_fired = std::make_shared<std::atomic<bool>>(false);
  auto late_fired = std::make_shared<std::atomic<bool>>(false);
  ServingConfig config;
  config.num_shards = 2;
  config.memory_budget_bytes = 1;  // every idle non-critical stream goes cold
  config.recovery.max_retries = 3;
  config.detector_decorator =
      [flaky_fired, late_fired](std::unique_ptr<OnlineDetector> inner,
                                const std::string& id)
      -> Result<std::unique_ptr<OnlineDetector>> {
    if (id == "flaky") {
      return std::unique_ptr<OnlineDetector>(
          std::make_unique<FailOnceDetector>(std::move(inner), 40,
                                             flaky_fired));
    }
    if (id == "late") {
      return std::unique_ptr<OnlineDetector>(
          std::make_unique<FailOnceDetector>(std::move(inner), 90,
                                             late_fired));
    }
    if (id == "doomed") {
      // A fresh flag per build: every recovery replay fails again.
      return std::unique_ptr<OnlineDetector>(
          std::make_unique<FailOnceDetector>(
              std::move(inner), 20, std::make_shared<std::atomic<bool>>()));
    }
    return std::unique_ptr<OnlineDetector>(std::move(inner));
  };
  const std::string spec = "zscore:w=16";
  const std::vector<std::string> ids = {"pager", "pager2", "bulk",
                                        "flaky", "doomed", "late"};
  std::map<std::string, Series> data;
  ShardedEngine engine(config);
  for (std::size_t s = 0; s < ids.size(); ++s) {
    StreamOptions options;
    if (ids[s].rfind("pager", 0) == 0) {
      options.priority = StreamPriority::kCritical;  // stays live
    }
    ASSERT_TRUE(engine.AddStream(ids[s], spec, options).ok());
    data[ids[s]] = MakeStream(100, 60 + s);
  }
  EXPECT_EQ(engine.AddStream("bulk", spec).code(),
            StatusCode::kInvalidArgument);
  PumpAndExpectMemoryMatchesRollup(engine);

  for (std::size_t t0 = 0; t0 < 80; t0 += 5) {
    for (const std::string& id : ids) {
      for (std::size_t t = t0; t < t0 + 5; ++t) {
        const Status pushed = engine.Push(id, data[id][t]);
        if (id != "doomed") {  // rejected once its failure sticks
          ASSERT_TRUE(pushed.ok()) << id;
        }
      }
    }
    PumpAndExpectMemoryMatchesRollup(engine);
  }
  const ServingStats stats = engine.stats();
  EXPECT_GT(stats.cold_evictions, 0u);
  EXPECT_GT(stats.thaws, 0u);
  EXPECT_EQ(stats.streams_cold, 3u);  // bulk, flaky, late
  EXPECT_EQ(stats.quarantines, 2u);   // flaky, doomed
  EXPECT_EQ(stats.recoveries, 1u);    // flaky
  EXPECT_TRUE(engine.StreamStatus("flaky").ok());
  EXPECT_EQ(engine.StreamStatus("doomed").code(), StatusCode::kInternal);

  auto head = [&data](const std::string& id, std::size_t n) {
    return Series(data[id].begin(),
                  data[id].begin() + static_cast<std::ptrdiff_t>(n));
  };
  auto pager = engine.FinishStream("pager");  // healthy
  ASSERT_TRUE(pager.ok()) << pager.status().message();
  EXPECT_TRUE(BitEqual(*pager, BatchScores(spec, head("pager", 80), 0)));
  PumpAndExpectMemoryMatchesRollup(engine);
  auto bulk = engine.FinishStream("bulk");  // cold
  ASSERT_TRUE(bulk.ok()) << bulk.status().message();
  EXPECT_TRUE(BitEqual(*bulk, BatchScores(spec, head("bulk", 80), 0)));
  PumpAndExpectMemoryMatchesRollup(engine);
  // The fault at point 90 fires in FinishStream's own Pump, so the
  // stream is quarantined when FinishStream force-recovers it.
  for (std::size_t t = 80; t < 100; ++t) {
    ASSERT_TRUE(engine.Push("late", data["late"][t]).ok());
  }
  auto late = engine.FinishStream("late");
  ASSERT_TRUE(late.ok()) << late.status().message();
  EXPECT_TRUE(late_fired->load());
  EXPECT_EQ(engine.stats().recoveries, 2u);
  EXPECT_TRUE(BitEqual(*late, BatchScores(spec, data["late"], 0)));
  PumpAndExpectMemoryMatchesRollup(engine);

  auto blob = engine.Snapshot();  // pager2 live, flaky cold, doomed failed
  ASSERT_TRUE(blob.ok()) << blob.status().message();
  ShardedEngine restored(config);
  ASSERT_TRUE(restored.Restore(*blob).ok());
  PumpAndExpectMemoryMatchesRollup(restored);
  EXPECT_GT(restored.stats().memory_bytes, 0u);
  for (const std::string id : {"pager2", "flaky"}) {
    auto scores = restored.FinishStream(id);
    ASSERT_TRUE(scores.ok()) << id << ": " << scores.status().message();
    EXPECT_TRUE(BitEqual(*scores, BatchScores(spec, head(id, 80), 0))) << id;
    PumpAndExpectMemoryMatchesRollup(restored);
  }
  EXPECT_EQ(restored.FinishStream("doomed").status().code(),
            StatusCode::kInternal);
  PumpAndExpectMemoryMatchesRollup(restored);
  EXPECT_EQ(restored.num_streams(), 0u);
  EXPECT_EQ(restored.stats().memory_bytes, 0u);
}

// Records the order in which the engine snapshots its detectors: the
// budget enforcer snapshots each victim as it evicts it.
class SnapshotLogDetector : public OnlineDetector {
 public:
  SnapshotLogDetector(std::unique_ptr<OnlineDetector> inner, std::string id,
                      std::shared_ptr<std::vector<std::string>> log)
      : inner_(std::move(inner)), id_(std::move(id)), log_(std::move(log)) {}
  std::string_view name() const override { return inner_->name(); }
  Status Observe(double value, std::vector<ScoredPoint>* out) override {
    return inner_->Observe(value, out);
  }
  Status Flush(std::vector<ScoredPoint>* out) override {
    return inner_->Flush(out);
  }
  Result<std::string> Snapshot() const override {
    log_->push_back(id_);
    return inner_->Snapshot();
  }
  Status Restore(std::string_view blob) override {
    return inner_->Restore(blob);
  }
  std::size_t MemoryFootprint() const override {
    return inner_->MemoryFootprint();
  }

 private:
  std::unique_ptr<OnlineDetector> inner_;
  std::string id_;
  std::shared_ptr<std::vector<std::string>> log_;
};

TEST(ShardedEngineTest, SnapshotBytesDoNotDependOnInsertionOrder) {
  // The registry is hashed; the blob must still list streams in id
  // order, so two engines holding the same streams write the same bytes.
  std::vector<std::string> ids;
  for (int s = 0; s < 24; ++s) ids.push_back("stream-" + std::to_string(s));
  auto snapshot = [&ids](bool reversed) {
    ServingConfig config;
    config.num_shards = 3;
    ShardedEngine engine(config);
    std::vector<std::string> order = ids;
    if (reversed) std::reverse(order.begin(), order.end());
    for (const std::string& id : order) {
      EXPECT_TRUE(engine.AddStream(id, "zscore:w=16").ok());
    }
    for (std::size_t s = 0; s < ids.size(); ++s) {
      for (double v : MakeStream(40 + s, 300 + s)) {
        EXPECT_TRUE(engine.Push(ids[s], v).ok());
      }
    }
    Result<std::string> blob = engine.Snapshot();
    EXPECT_TRUE(blob.ok()) << blob.status().message();
    return blob.ok() ? *blob : std::string();
  };
  const std::string forward = snapshot(false);
  const std::string backward = snapshot(true);
  ASSERT_FALSE(forward.empty());
  EXPECT_EQ(forward.size(), backward.size());
  EXPECT_TRUE(forward == backward);
}

TEST(ShardedEngineTest, EvictionBreaksTiesByLowestId) {
  // Four streams of one priority class, all last active in the same
  // pump, and a budget that forces exactly two evictions: the two
  // lowest ids go, whatever order the streams were added in.
  const Series x = MakeStream(20, 77);
  Result<std::unique_ptr<OnlineDetector>> probe =
      MakeOnlineDetector("zscore:w=16", 0);
  ASSERT_TRUE(probe.ok());
  std::vector<ScoredPoint> sink;
  for (double v : x) ASSERT_TRUE((*probe)->Observe(v, &sink).ok());
  const std::size_t footprint = (*probe)->MemoryFootprint();

  for (const std::vector<std::string>& order :
       {std::vector<std::string>{"d", "b", "a", "c"},
        std::vector<std::string>{"c", "a", "b", "d"}}) {
    auto log = std::make_shared<std::vector<std::string>>();
    ServingConfig config;
    config.num_shards = 2;
    config.memory_budget_bytes = 2 * footprint + footprint / 2;
    config.detector_decorator =
        [log](std::unique_ptr<OnlineDetector> inner, const std::string& id)
        -> Result<std::unique_ptr<OnlineDetector>> {
      return std::unique_ptr<OnlineDetector>(
          std::make_unique<SnapshotLogDetector>(std::move(inner), id, log));
    };
    ShardedEngine engine(config);
    for (const std::string& id : order) {
      ASSERT_TRUE(engine.AddStream(id, "zscore:w=16").ok());
    }
    for (const std::string& id : order) {
      for (double v : x) ASSERT_TRUE(engine.Push(id, v).ok());
    }
    ASSERT_TRUE(engine.Pump().ok());
    EXPECT_EQ(*log, (std::vector<std::string>{"a", "b"})) << order[0];
    EXPECT_EQ(engine.stats().streams_cold, 2u);
  }
}

TEST(ShardedEngineTest, CheckpointsFollowTheRecoverySetting) {
  // Recovery checkpoints exist only while recovery is enabled. Without
  // one, a restored stream and a thawed stream that later hit a
  // detector error still fail sticky; with recovery on, a stream that
  // fails after a thaw (or right after a restore) rolls back to the
  // thawed (or restored) state and recovers byte-identically.
  const std::string spec = "zscore:w=16";
  const Series x = MakeStream(120, 91);
  auto fail_at = [](std::size_t at, std::shared_ptr<std::atomic<bool>> fired) {
    return [at, fired](std::unique_ptr<OnlineDetector> inner,
                       const std::string&)
               -> Result<std::unique_ptr<OnlineDetector>> {
      return std::unique_ptr<OnlineDetector>(
          std::make_unique<FailOnceDetector>(std::move(inner), at, fired));
    };
  };
  for (const bool recover : {false, true}) {
    SCOPED_TRACE(recover ? "recovery on" : "recovery off");
    ServingConfig config;
    config.num_shards = 1;
    if (recover) config.recovery.max_retries = 3;

    // Restored: the first drain after Restore fails.
    ShardedEngine first(config);
    ASSERT_TRUE(first.AddStream("restored", spec).ok());
    for (std::size_t t = 0; t < 60; ++t) {
      ASSERT_TRUE(first.Push("restored", x[t]).ok());
    }
    Result<std::string> blob = first.Snapshot();
    ASSERT_TRUE(blob.ok()) << blob.status().message();
    auto restored_fired = std::make_shared<std::atomic<bool>>(false);
    ServingConfig faulty = config;
    faulty.detector_decorator = fail_at(70, restored_fired);
    ShardedEngine second(faulty);
    ASSERT_TRUE(second.Restore(*blob).ok());
    for (std::size_t t = 60; t < x.size(); ++t) {
      ASSERT_TRUE(second.Push("restored", x[t]).ok());
    }
    Result<std::vector<double>> restored = second.FinishStream("restored");
    EXPECT_TRUE(restored_fired->load());

    // Thawed: every idle stream goes cold after each pump, so each
    // pump below thaws the stream before scoring; the fault fires in
    // the fourth.
    auto thawed_fired = std::make_shared<std::atomic<bool>>(false);
    ServingConfig cold = config;
    cold.memory_budget_bytes = 1;
    cold.detector_decorator = fail_at(70, thawed_fired);
    ShardedEngine engine(cold);
    ASSERT_TRUE(engine.AddStream("thawed", spec).ok());
    for (std::size_t t = 0; t < x.size(); ++t) {
      const Status pushed = engine.Push("thawed", x[t]);
      if (recover || t < 80) {
        ASSERT_TRUE(pushed.ok()) << t;
      } else {  // the failure stuck in the pump after point 79
        EXPECT_EQ(pushed.code(), StatusCode::kInternal) << t;
      }
      if (t % 20 == 19) {
        ASSERT_TRUE(engine.Pump().ok());
      }
    }
    Result<std::vector<double>> thawed = engine.FinishStream("thawed");
    EXPECT_TRUE(thawed_fired->load());
    EXPECT_GT(engine.stats().thaws, 2u);

    if (recover) {
      ASSERT_TRUE(restored.ok()) << restored.status().message();
      EXPECT_TRUE(BitEqual(*restored, BatchScores(spec, x, 0)));
      ASSERT_TRUE(thawed.ok()) << thawed.status().message();
      EXPECT_TRUE(BitEqual(*thawed, BatchScores(spec, x, 0)));
      EXPECT_EQ(engine.stats().recoveries, 1u);
    } else {
      EXPECT_EQ(restored.status().code(), StatusCode::kInternal);
      EXPECT_EQ(second.stats().quarantines, 0u);
      EXPECT_EQ(thawed.status().code(), StatusCode::kInternal);
      EXPECT_EQ(engine.stats().quarantines, 0u);
      EXPECT_GT(engine.stats().points_dropped, 0u);
    }
  }
}

// Forwards to an inner adapter, except that the first Restore made
// while `armed` is set fails (and disarms it) before the inner adapter
// sees the blob: a thaw or recovery whose restore hits a transient fault.
class FailRestoreOnceDetector : public OnlineDetector {
 public:
  FailRestoreOnceDetector(std::unique_ptr<OnlineDetector> inner,
                          std::shared_ptr<std::atomic<bool>> armed)
      : inner_(std::move(inner)), armed_(std::move(armed)) {}
  std::string_view name() const override { return inner_->name(); }
  Status Observe(double value, std::vector<ScoredPoint>* out) override {
    const Status status = inner_->Observe(value, out);
    observed_ = inner_->observed();
    return status;
  }
  Status Flush(std::vector<ScoredPoint>* out) override {
    return inner_->Flush(out);
  }
  Result<std::string> Snapshot() const override { return inner_->Snapshot(); }
  Status Restore(std::string_view blob) override {
    if (armed_->exchange(false)) {
      return Status::Internal("injected restore failure");
    }
    const Status status = inner_->Restore(blob);
    observed_ = inner_->observed();
    return status;
  }
  std::size_t MemoryFootprint() const override {
    return inner_->MemoryFootprint();
  }

 private:
  std::unique_ptr<OnlineDetector> inner_;
  std::shared_ptr<std::atomic<bool>> armed_;
};

TEST(ShardedEngineTest, FailingThawQuarantinesOrFailsTheStream) {
  // A one-byte budget sends the stream cold after its first 40 points;
  // the thaw that the next 30 points trigger then fails its restore.
  const std::string spec = "zscore:w=16";
  const Series x = MakeStream(70, 95);
  auto cold_engine = [&spec, &x](bool recover,
                                 std::shared_ptr<std::atomic<bool>> armed) {
    ServingConfig config;
    config.num_shards = 1;
    config.memory_budget_bytes = 1;
    if (recover) config.recovery.max_retries = 3;
    config.detector_decorator =
        [armed](std::unique_ptr<OnlineDetector> inner, const std::string&)
        -> Result<std::unique_ptr<OnlineDetector>> {
      return std::unique_ptr<OnlineDetector>(
          std::make_unique<FailRestoreOnceDetector>(std::move(inner), armed));
    };
    auto engine = std::make_unique<ShardedEngine>(config);
    EXPECT_TRUE(engine->AddStream("s", spec).ok());
    for (std::size_t t = 0; t < 40; ++t) {
      EXPECT_TRUE(engine->Push("s", x[t]).ok());
    }
    EXPECT_TRUE(engine->Pump().ok());
    EXPECT_EQ(engine->stats().streams_cold, 1u);
    EXPECT_GT(engine->stats().cold_bytes, 0u);
    armed->store(true);
    return engine;
  };

  {
    SCOPED_TRACE("recovery on: the cold blob becomes the recovery point");
    auto armed = std::make_shared<std::atomic<bool>>(false);
    std::unique_ptr<ShardedEngine> engine = cold_engine(true, armed);
    for (std::size_t t = 40; t < 70; ++t) {
      ASSERT_TRUE(engine->Push("s", x[t]).ok());
    }
    ASSERT_TRUE(engine->Pump().ok());
    EXPECT_FALSE(armed->load());
    ServingStats stats = engine->stats();
    EXPECT_EQ(stats.quarantines, 1u);
    EXPECT_EQ(stats.thaws, 0u);
    EXPECT_EQ(stats.streams_quarantined, 1u);
    EXPECT_EQ(stats.cold_bytes, 0u);
    EXPECT_EQ(engine->StreamStatus("s").code(), StatusCode::kInternal);
    // The retry one pump later restores the former cold blob and
    // replays the 30 buffered points.
    ASSERT_TRUE(engine->Pump().ok());
    stats = engine->stats();
    EXPECT_EQ(stats.recoveries, 1u);
    EXPECT_EQ(stats.recovery_failures, 0u);
    EXPECT_TRUE(engine->StreamStatus("s").ok());
    Result<std::vector<double>> scores = engine->FinishStream("s");
    ASSERT_TRUE(scores.ok()) << scores.status().message();
    EXPECT_TRUE(BitEqual(*scores, BatchScores(spec, x, 0)));
  }
  {
    SCOPED_TRACE("recovery off: the stream fails sticky");
    auto armed = std::make_shared<std::atomic<bool>>(false);
    std::unique_ptr<ShardedEngine> engine = cold_engine(false, armed);
    for (std::size_t t = 40; t < 70; ++t) {
      ASSERT_TRUE(engine->Push("s", x[t]).ok());
    }
    ASSERT_TRUE(engine->Pump().ok());
    const ServingStats stats = engine->stats();
    EXPECT_EQ(stats.points_dropped, 30u);
    EXPECT_EQ(stats.quarantines, 0u);
    EXPECT_EQ(stats.thaws, 0u);
    EXPECT_EQ(stats.streams_cold, 0u);
    EXPECT_EQ(stats.cold_bytes, 0u);
    EXPECT_EQ(engine->StreamStatus("s").code(), StatusCode::kInternal);
    EXPECT_EQ(engine->Push("s", 1.0).code(), StatusCode::kInternal);
    EXPECT_EQ(engine->FinishStream("s").status().code(),
              StatusCode::kInternal);
  }
  for (const bool recover : {false, true}) {
    SCOPED_TRACE(recover ? "FinishStream's thaw fails, recovery on"
                         : "FinishStream's thaw fails, recovery off");
    auto armed = std::make_shared<std::atomic<bool>>(false);
    std::unique_ptr<ShardedEngine> engine = cold_engine(recover, armed);
    Result<std::vector<double>> scores = engine->FinishStream("s");
    EXPECT_EQ(scores.status().code(), StatusCode::kInternal);
    EXPECT_FALSE(armed->load());
    EXPECT_EQ(engine->num_streams(), 0u);
    const ServingStats stats = engine->stats();
    EXPECT_EQ(stats.cold_bytes, 0u);
    EXPECT_EQ(stats.streams_cold, 0u);
    EXPECT_EQ(stats.thaws, 0u);
  }
}

// A zscore:w=16 stream record up to and including its scored-point
// count; `health` is the wire value (0 healthy, 1 cold, 2 quarantined,
// 3 failed).
void PutStreamPrefix(ByteWriter* writer, const std::string& id,
                     std::uint64_t health, std::uint64_t out_count,
                     std::uint64_t status_code = 0) {
  writer->PutString(id);
  writer->PutString("zscore:w=16");
  writer->PutU64(0);  // train_length
  writer->PutU64(static_cast<std::uint64_t>(StreamPriority::kNormal));
  writer->PutString("");  // tenant
  writer->PutU64(0);      // accepted
  writer->PutU64(health);
  writer->PutU64(status_code);
  writer->PutString("");  // status message
  writer->PutU64(out_count);
}

// A one-stream engine snapshot up to and including the stream's
// scored-point count.
ByteWriter EngineBlobPrefix(std::uint64_t health, std::uint64_t out_count) {
  ByteWriter writer;
  writer.PutString("tsad-serving-engine-v2");
  writer.PutU64(1);  // streams
  PutStreamPrefix(&writer, "s", health, out_count);
  return writer;
}

TEST(ShardedEngineTest, RestoreRejectsInflatedCountsWithoutThrowing) {
  // Counts no blob could back: reserving them would throw
  // length_error; Restore must return an error and stay empty instead.
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 62;
  ByteWriter out_blob = EngineBlobPrefix(0, kHuge);
  ByteWriter pending_blob = EngineBlobPrefix(2, 0);
  pending_blob.PutString("");  // checkpoint blob
  pending_blob.PutU64(0);      // checkpoint_out
  pending_blob.PutU64(kHuge);  // pending points
  for (const std::string& blob : {out_blob.Take(), pending_blob.Take()}) {
    ShardedEngine engine;
    Status restored = Status::OK();
    EXPECT_NO_THROW(restored = engine.Restore(blob));
    EXPECT_EQ(restored.code(), StatusCode::kOutOfRange);
    EXPECT_EQ(engine.num_streams(), 0u);
  }
}

TEST(ShardedEngineTest, RestoreRefusesAStatusThatContradictsTheHealth) {
  // A stream's status is its sticky error exactly when it failed, and a
  // quarantined stream carries its cause and sits at its checkpoint. A
  // failed record with an OK status used to restore (so did a code that
  // a cast to StatusCode wraps to OK): Push then returned OK without
  // queueing the point, and FinishStream flushed the stream's null
  // detector.
  Result<std::unique_ptr<OnlineDetector>> detector =
      MakeOnlineDetector("zscore:w=16", 0);
  ASSERT_TRUE(detector.ok());
  Result<std::string> good = (*detector)->Snapshot();
  ASSERT_TRUE(good.ok());
  constexpr std::uint64_t kOk = 0;
  constexpr auto kInternal = static_cast<std::uint64_t>(StatusCode::kInternal);
  constexpr std::uint64_t kWrapsToOk = std::uint64_t{1} << 32;
  auto record = [&good](std::uint64_t health, std::uint64_t status) {
    ByteWriter writer;
    writer.PutString("tsad-serving-engine-v2");
    writer.PutU64(1);  // streams
    PutStreamPrefix(&writer, "s", health, /*out_count=*/0, status);
    if (health != 3) writer.PutString(*good);  // detector or saved state
    return writer;
  };
  auto quarantined = [&record](std::uint64_t status,
                               std::uint64_t checkpoint_out,
                               std::uint64_t cause) {
    ByteWriter writer = record(2, status);
    writer.PutU64(checkpoint_out);
    writer.PutDoubles({});  // pending points
    writer.PutU64(0);       // retries
    writer.PutU64(0);       // pumps to the next retry
    writer.PutU64(cause);
    writer.PutString("cause");
    return writer.Take();
  };

  // The crafted quarantined record is well formed when consistent.
  {
    ShardedEngine engine;
    ASSERT_TRUE(engine.Restore(quarantined(kOk, 0, kInternal)).ok());
    EXPECT_EQ(engine.stats().streams_quarantined, 1u);
  }
  const std::pair<const char*, std::string> contradictions[] = {
      {"failed, OK status", record(3, kOk).Take()},
      {"failed, a code that wraps to OK", record(3, kWrapsToOk).Take()},
      {"healthy, error status", record(0, kInternal).Take()},
      {"cold, error status", record(1, kInternal).Take()},
      {"quarantined, error status", quarantined(kInternal, 0, kInternal)},
      {"quarantined, OK cause", quarantined(kOk, 0, kOk)},
      {"quarantined, a cause that wraps to OK",
       quarantined(kOk, 0, kWrapsToOk)},
      {"quarantined off its checkpoint", quarantined(kOk, 5, kInternal)},
  };
  for (const auto& [what, blob] : contradictions) {
    ShardedEngine engine;
    const Status restored = engine.Restore(blob);
    EXPECT_EQ(restored.code(), StatusCode::kInvalidArgument)
        << what << ": " << restored.ToString();
    EXPECT_EQ(engine.num_streams(), 0u) << what;
  }
}

// FNV-1a 64 over a blob, to pin its bytes with one constant.
std::uint64_t Fnv1a64(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// An engine holding one stream of every online adapter, one cold, one
// quarantined and one failed stream (plus `extra` small streams, half
// of them cold), built the same way at any thread count. Every stream
// but the kBatch ones is kCritical, so a one-byte budget evicts exactly
// those. Returns the engine after the pushes; Snapshot() pumps once
// more, which quarantines "quarantined".
std::unique_ptr<ShardedEngine> PinnedEngine(std::size_t extra = 0) {
  auto fired = std::make_shared<std::atomic<bool>>(false);
  ServingConfig config;
  config.num_shards = 3;
  config.queue_capacity = std::size_t{1} << 20;
  config.memory_budget_bytes = 1;
  config.recovery.max_retries = 1;
  config.detector_decorator =
      [fired](std::unique_ptr<OnlineDetector> inner, const std::string& id)
      -> Result<std::unique_ptr<OnlineDetector>> {
    if (id == "failed") {  // a fresh flag per build: every rebuild fails
      return std::unique_ptr<OnlineDetector>(std::make_unique<FailOnceDetector>(
          std::move(inner), 20, std::make_shared<std::atomic<bool>>(false)));
    }
    if (id == "quarantined") {
      return std::unique_ptr<OnlineDetector>(
          std::make_unique<FailOnceDetector>(std::move(inner), 40, fired));
    }
    return std::unique_ptr<OnlineDetector>(std::move(inner));
  };
  auto engine = std::make_unique<ShardedEngine>(config);

  const std::vector<std::pair<std::string, std::string>> hot = {
      {"zscore", "zscore"},           {"cusum", "cusum"},
      {"ewma", "ewma"},               {"pagehinkley", "pagehinkley"},
      {"oneliner", "oneliner"},       {"floss", "floss:16:128"},
      {"streaming", "streaming"},     {"resilient", "resilient:zscore"}};
  auto add = [&engine](const std::string& id, const std::string& spec,
                       StreamPriority priority) {
    StreamOptions options;
    options.priority = priority;
    options.train_length = 64;
    EXPECT_TRUE(engine->AddStream(id, spec, options).ok()) << id;
  };
  for (const auto& [id, spec] : hot) add(id, spec, StreamPriority::kCritical);
  add("cold", "zscore:w=24", StreamPriority::kBatch);
  add("quarantined", "zscore:w=16", StreamPriority::kCritical);
  add("failed", "zscore:w=16", StreamPriority::kCritical);
  for (std::size_t e = 0; e < extra; ++e) {
    add("extra-" + std::to_string(e), "zscore:w=8",
        e % 2 == 0 ? StreamPriority::kCritical : StreamPriority::kBatch);
  }

  auto push = [&engine](const std::string& id, const Series& x,
                        std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      EXPECT_TRUE(engine->Push(id, x[t]).ok()) << id << " " << t;
    }
  };
  // Pump 1 drains the first half, quarantines "failed" (its detector
  // fails at point 20) and evicts every kBatch stream; pump 2 retries
  // "failed", which fails again and sticks.
  std::uint64_t seed = 500;
  for (const auto& [id, spec] : hot) push(id, MakeStream(300, ++seed), 0, 150);
  push("cold", MakeStream(300, 600), 0, 150);
  push("failed", MakeStream(40, 601), 0, 40);
  for (std::size_t e = 0; e < extra; ++e) {
    push("extra-" + std::to_string(e), MakeStream(30, 700 + e), 0, 30);
  }
  EXPECT_TRUE(engine->Pump().ok());
  EXPECT_TRUE(engine->Pump().ok());
  // The second half reaches the hot streams only; "quarantined" fails
  // at its point 40 in Snapshot's own pump, one pump before its retry.
  seed = 500;
  for (const auto& [id, spec] : hot) {
    push(id, MakeStream(300, ++seed), 150, 300);
  }
  push("quarantined", MakeStream(60, 602), 0, 60);
  return engine;
}

TEST(ShardedEngineTest, SnapshotFormatIsPinned) {
  // The blob's bytes, pinned: a codec or engine change that moves one
  // byte of the serving snapshot format fails here.
  std::unique_ptr<ShardedEngine> engine = PinnedEngine();
  Result<std::string> blob = engine->Snapshot();
  ASSERT_TRUE(blob.ok()) << blob.status().message();
  const ServingStats stats = engine->stats();
  EXPECT_EQ(stats.streams_cold, 1u);
  EXPECT_EQ(stats.streams_quarantined, 1u);
  EXPECT_EQ(engine->StreamStatus("failed").code(), StatusCode::kInternal);
  EXPECT_EQ(blob->size(), kPinnedSnapshotBytes);
  EXPECT_EQ(Fnv1a64(*blob), kPinnedSnapshotFnv1a);

  // And it restores: every stream comes back in its state.
  ShardedEngine second;
  ASSERT_TRUE(second.Restore(*blob).ok());
  EXPECT_EQ(second.num_streams(), 11u);
  EXPECT_EQ(second.stats().streams_cold, 1u);
  EXPECT_EQ(second.stats().streams_quarantined, 1u);
  EXPECT_EQ(second.StreamStatus("failed").code(), StatusCode::kInternal);
}

TEST(ShardedEngineTest, SnapshotBytesDoNotDependOnThreadCount) {
  // 700 extra streams span several of Snapshot's internal encode
  // batches.
  std::string serial, parallel;
  {
    ThreadCountGuard threads(1);
    Result<std::string> blob = PinnedEngine(700)->Snapshot();
    ASSERT_TRUE(blob.ok()) << blob.status().message();
    serial = std::move(*blob);
  }
  {
    ThreadCountGuard threads(4);
    Result<std::string> blob = PinnedEngine(700)->Snapshot();
    ASSERT_TRUE(blob.ok()) << blob.status().message();
    parallel = std::move(*blob);
  }
  EXPECT_EQ(serial.size(), parallel.size());
  EXPECT_TRUE(serial == parallel);
}

TEST(ShardedEngineTest, RestoreOfTruncatedBlobsFailsCleanly) {
  // Every cut of the pinned blob fails, leaves the engine empty, and
  // reports the same Status at 1 thread and at 4. The digest pins the
  // statuses themselves, so the error a truncated blob reports stays
  // the one of the first damaged field in blob order.
  Result<std::string> blob = PinnedEngine()->Snapshot();
  ASSERT_TRUE(blob.ok()) << blob.status().message();
  std::vector<std::size_t> cuts;
  for (std::size_t cut = 0; cut < blob->size(); cut += 61) cuts.push_back(cut);
  for (std::size_t back = 64; back >= 1; --back) {
    if (back <= blob->size()) cuts.push_back(blob->size() - back);
  }
  std::string statuses;
  for (const std::size_t cut : cuts) {
    const std::string_view truncated = std::string_view(*blob).substr(0, cut);
    Status at[2];
    const std::size_t thread_counts[2] = {1, 4};
    for (int k = 0; k < 2; ++k) {
      ThreadCountGuard threads(thread_counts[k]);
      ShardedEngine engine;
      Status restored = Status::OK();
      EXPECT_NO_THROW(restored = engine.Restore(truncated));
      EXPECT_FALSE(restored.ok()) << "cut " << cut;
      EXPECT_EQ(engine.num_streams(), 0u) << "cut " << cut;
      at[k] = restored;
    }
    EXPECT_EQ(at[0].code(), at[1].code()) << "cut " << cut;
    EXPECT_EQ(at[0].message(), at[1].message()) << "cut " << cut;
    statuses += at[0].ToString() + "\n";
  }
  EXPECT_EQ(Fnv1a64(statuses), kPinnedTruncationStatusesFnv1a);
}

// Restores `blob` at 1 thread and at 4, expects the same failure at
// both with the engine left empty, and returns it.
Status RestoreFailureAtOneAndFourThreads(std::string_view blob) {
  Status at[2];
  const std::size_t thread_counts[2] = {1, 4};
  for (int k = 0; k < 2; ++k) {
    ThreadCountGuard threads(thread_counts[k]);
    ShardedEngine engine;
    at[k] = engine.Restore(blob);
    EXPECT_FALSE(at[k].ok());
    EXPECT_EQ(engine.num_streams(), 0u);
  }
  EXPECT_EQ(at[0].ToString(), at[1].ToString());
  return at[0];
}

TEST(ShardedEngineTest, RestoreReportsTheFirstDamagedStreamInBlobOrder) {
  // Each stream is checked in full (its fields, its detector, its id
  // against the ones before it) before the next one counts: the error
  // Restore reports belongs to the first damaged stream in blob order,
  // at any thread count.
  Result<std::unique_ptr<OnlineDetector>> detector =
      MakeOnlineDetector("zscore:w=16", 0);
  ASSERT_TRUE(detector.ok());
  Result<std::string> good = (*detector)->Snapshot();
  ASSERT_TRUE(good.ok());
  ByteWriter wrong_tag;
  wrong_tag.PutString("online:nope");
  const std::string bad = wrong_tag.Take();
  auto blob_of = [](const std::vector<std::pair<std::string, std::string>>&
                        streams) {
    ByteWriter writer;
    writer.PutString("tsad-serving-engine-v2");
    writer.PutU64(streams.size());
    for (const auto& [id, detector_blob] : streams) {
      PutStreamPrefix(&writer, id, /*health=*/0, /*out_count=*/0);
      writer.PutString(detector_blob);
    }
    return writer.Take();
  };

  // A repeated id whose detector also fails: the detector error wins.
  Status s = RestoreFailureAtOneAndFourThreads(
      blob_of({{"a", *good}, {"b", *good}, {"a", bad}}));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.message().find("online:nope"), std::string::npos);
  // A repeated id with a good detector, before a broken stream.
  s = RestoreFailureAtOneAndFourThreads(
      blob_of({{"a", *good}, {"a", *good}, {"c", bad}}));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.message().find("duplicate stream id"), std::string::npos);
  // A broken detector early and a truncation at the very end.
  std::string truncated = blob_of({{"a", *good}, {"b", bad}, {"c", *good}});
  truncated.pop_back();
  s = RestoreFailureAtOneAndFourThreads(truncated);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.message().find("online:nope"), std::string::npos);

  // The pinned fleet with its "cusum" and last ("zscore") detectors
  // renamed and its last byte cut: cusum's detector error is reported.
  Result<std::string> pinned = PinnedEngine()->Snapshot();
  ASSERT_TRUE(pinned.ok()) << pinned.status().message();
  std::string damaged = *pinned;
  const std::size_t cusum = damaged.find("online:", damaged.find("cusum"));
  const std::size_t last = damaged.rfind("online:");
  ASSERT_NE(cusum, std::string::npos);
  ASSERT_LT(cusum, last);
  damaged[cusum + 1] = 'X';
  damaged[last + 1] = 'X';
  damaged.pop_back();
  s = RestoreFailureAtOneAndFourThreads(damaged);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.message().find("oXline:CUSUM"), std::string::npos)
      << s.ToString();
}

TEST(ReplayTest, HugeBatchSaturatesTheQueueFloor) {
  // 4 streams x 2^62 points per batch wraps a size_t to 0. The queue
  // floor must saturate instead, or the default 1024-point capacity
  // stays and the shed policy sheds replay's own input.
  const Series x = MakeStream(2000, 5);
  ReplayOptions options;
  options.num_streams = 4;
  options.batch = std::size_t{1} << 62;
  options.detector_spec = "zscore:w=16";
  options.engine.overflow = OverflowPolicy::kShed;
  Result<ReplayReport> report = ReplayThroughEngine(x, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->verified);
  EXPECT_EQ(report->shed, 0u);
  EXPECT_EQ(report->points, 4 * x.size());
}

}  // namespace
}  // namespace tsad
