#include "detectors/floss.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "common/rng.h"
#include "common/series.h"
#include "detectors/registry.h"
#include "serving/engine.h"
#include "serving/online_adapters.h"
#include "serving/online_detector.h"

namespace tsad {
namespace {

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Two-regime series with a clean semantic boundary at t = 600: white
// noise, then the SAME noise smoothed by a centered MA(8). Both
// regimes are aperiodic (quasi-periodic data concentrates right-arcs
// at long phase-alignment lags, which blurs the boundary — a property
// of the arc statistic, not of the kernel), so the arc curve dips
// sharply only where the texture changes.
Series TwoRegimeSeries() {
  Rng rng(13);
  std::vector<double> raw;
  raw.reserve(1400);
  for (int t = 0; t < 1400; ++t) raw.push_back(rng.Gaussian());
  Series x;
  x.reserve(1200);
  for (int t = 0; t < 1200; ++t) {
    if (t < 600) {
      x.push_back(raw[static_cast<std::size_t>(t)]);
    } else {
      double s = 0.0;
      for (int k = 0; k < 8; ++k) s += raw[static_cast<std::size_t>(t + k)];
      x.push_back(s / 8.0);
    }
  }
  return x;
}

TEST(FlossSpecTest, ParsesPositionalGrammar) {
  const Result<FlossParams> bare = ParseFlossSpec("floss");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->m, 64u);
  EXPECT_EQ(bare->buffer_cap, GetDefaultFlossBufferCap());

  const Result<FlossParams> windowed = ParseFlossSpec("floss:24");
  ASSERT_TRUE(windowed.ok());
  EXPECT_EQ(windowed->m, 24u);
  EXPECT_EQ(windowed->buffer_cap, GetDefaultFlossBufferCap());

  const Result<FlossParams> full = ParseFlossSpec("floss:24:96");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->m, 24u);
  EXPECT_EQ(full->buffer_cap, 96u);
}

TEST(FlossSpecTest, RejectsDegenerateSpecs) {
  EXPECT_FALSE(ParseFlossSpec("floss:2").ok());      // window < 3
  EXPECT_FALSE(ParseFlossSpec("floss:24:50").ok());  // buffer < 4 * window
  EXPECT_FALSE(ParseFlossSpec("floss:24:0").ok());   // no eviction: unbounded
  EXPECT_FALSE(ParseFlossSpec("floss:24:96:1").ok());
  EXPECT_FALSE(ParseFlossSpec("floss:abc").ok());
  EXPECT_FALSE(ParseFlossSpec("floss:").ok());
}

TEST(FlossRegistryTest, BuildsFromTheRegistry) {
  const Result<std::unique_ptr<AnomalyDetector>> detector =
      MakeDetector("floss:24:96");
  ASSERT_TRUE(detector.ok()) << detector.status().message();
  EXPECT_EQ((*detector)->name(), "Floss[m=24,buffer=96]");

  // The hardened wrapper composes with the positional grammar.
  EXPECT_TRUE(MakeDetector("resilient:floss:16:64").ok());
}

TEST(FlossRegistryTest, RejectionsCarryTheGrammar) {
  const Result<std::unique_ptr<AnomalyDetector>> bad_window =
      MakeDetector("floss:2");
  ASSERT_FALSE(bad_window.ok());
  EXPECT_EQ(bad_window.status().code(), StatusCode::kInvalidArgument);

  const Result<std::unique_ptr<AnomalyDetector>> typo = MakeDetector("flos:32");
  ASSERT_FALSE(typo.ok());
  EXPECT_NE(typo.status().message().find("did you mean 'floss'"),
            std::string::npos)
      << typo.status().message();

  // Unknown-name errors enumerate the prefix grammars so prefixed specs
  // are discoverable from the error alone.
  const Result<std::unique_ptr<AnomalyDetector>> unknown =
      MakeDetector("nosuchdetector");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("prefixes:"), std::string::npos);
  EXPECT_NE(unknown.status().message().find("floss:<window>[:<buffer>]"),
            std::string::npos);
  EXPECT_NE(unknown.status().message().find("resilient:<spec>"),
            std::string::npos);
}

TEST(FlossRegistryTest, ListedInNamesAndPrefixes) {
  const std::vector<std::string> names = RegisteredDetectorNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "floss"), names.end());
  const std::vector<std::string> prefixes = RegisteredDetectorPrefixes();
  EXPECT_NE(std::find(prefixes.begin(), prefixes.end(),
                      "floss:<window>[:<buffer>]"),
            prefixes.end());
}

TEST(FlossRegistryTest, SimplifyHalvesTheWindowKeepingTheBuffer) {
  EXPECT_EQ(SimplifyDetectorSpec("floss:64:512"), "floss:32:512");
  EXPECT_EQ(SimplifyDetectorSpec("floss"), "floss:32");
  // Already at the floor: returned unchanged so the resilient retry
  // logic knows there is nothing cheaper to try.
  EXPECT_EQ(SimplifyDetectorSpec("floss:16"), "floss:16");
}

TEST(FlossDetectorTest, ScoresPeakAtTheRegimeBoundary) {
  const Series x = TwoRegimeSeries();
  FlossParams params;
  params.m = 24;
  params.buffer_cap = 4096;
  const FlossDetector detector(params);
  const Result<std::vector<double>> scores = detector.Score(x, 0);
  ASSERT_TRUE(scores.ok()) << scores.status().message();
  ASSERT_EQ(scores->size(), x.size());

  // The boundary is at t = 600; the arc curve needs up to lag = m
  // post-boundary subsequences before arcs stop crossing it, so the
  // detection window is [600, 700).
  double peak = 0.0;
  std::size_t peak_at = 0;
  double outside = 0.0;
  for (std::size_t t = 0; t < scores->size(); ++t) {
    const double s = (*scores)[t];
    ASSERT_GE(s, 0.0) << "t=" << t;
    ASSERT_LE(s, 1.0) << "t=" << t;
    if (t >= 600 && t < 700) {
      if (s > peak) {
        peak = s;
        peak_at = t;
      }
    } else if (s > outside) {
      outside = s;
    }
  }
  EXPECT_GE(peak_at, 600u);
  EXPECT_GT(peak, outside + 0.1)
      << "boundary peak " << peak << " at t=" << peak_at
      << " does not dominate the off-boundary maximum " << outside;

  // Edge correction: nothing can score before 2*lag+1 subsequences
  // exist.
  for (std::size_t t = 0; t < 2 * params.m; ++t) {
    EXPECT_EQ((*scores)[t], 0.0) << "t=" << t;
  }
}

TEST(FlossOnlineTest, ReplayIsByteIdenticalToBatchAcrossEvictions) {
  // cap 64, chunk 16: the 400-point stream evicts at pushes 64, 80,
  // 96, ... — batch and online walk the same eviction schedule because
  // they share FlossCore.
  const Series x = TwoRegimeSeries();
  const Series head(x.begin(), x.begin() + 400);

  const Result<std::unique_ptr<AnomalyDetector>> batch =
      MakeDetector("floss:16:64");
  ASSERT_TRUE(batch.ok());
  const Result<std::vector<double>> want = (*batch)->Score(head, 0);
  ASSERT_TRUE(want.ok());

  Result<std::unique_ptr<OnlineDetector>> online =
      MakeOnlineDetector("floss:16:64", 0);
  ASSERT_TRUE(online.ok()) << online.status().message();
  const Result<std::vector<double>> got = ReplayScore(**online, head);
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_TRUE(BitEqual(*got, *want));
}

TEST(FlossOnlineTest, SnapshotRestoreAtEvictionBoundariesIsBitExact) {
  const Series x = TwoRegimeSeries();
  const Series head(x.begin(), x.begin() + 300);

  Result<std::unique_ptr<OnlineDetector>> reference =
      MakeOnlineDetector("floss:16:64", 0);
  ASSERT_TRUE(reference.ok());
  const Result<std::vector<double>> want = ReplayScore(**reference, head);
  ASSERT_TRUE(want.ok());

  // >= 9 cuts; 64, 80 and 96 land exactly on eviction boundaries and
  // 65 snapshots a freshly pruned diagonal frontier.
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{1}, std::size_t{30}, std::size_t{63},
        std::size_t{64}, std::size_t{65}, std::size_t{80}, std::size_t{96},
        std::size_t{150}, std::size_t{250}}) {
    Result<std::unique_ptr<OnlineDetector>> first =
        MakeOnlineDetector("floss:16:64", 0);
    ASSERT_TRUE(first.ok());
    std::vector<ScoredPoint> emitted;
    for (std::size_t t = 0; t < cut; ++t) {
      ASSERT_TRUE((*first)->Observe(head[t], &emitted).ok()) << "cut=" << cut;
    }
    const Result<std::string> blob = (*first)->Snapshot();
    ASSERT_TRUE(blob.ok()) << "cut=" << cut;

    Result<std::unique_ptr<OnlineDetector>> second =
        MakeOnlineDetector("floss:16:64", 0);
    ASSERT_TRUE(second.ok());
    ASSERT_TRUE((*second)->Restore(*blob).ok()) << "cut=" << cut;
    for (std::size_t t = cut; t < head.size(); ++t) {
      ASSERT_TRUE((*second)->Observe(head[t], &emitted).ok()) << "cut=" << cut;
    }
    ASSERT_TRUE((*second)->Flush(&emitted).ok()) << "cut=" << cut;
    const Result<std::vector<double>> got =
        AssembleScores(emitted, head.size(), "floss-cut");
    ASSERT_TRUE(got.ok()) << "cut=" << cut << ": " << got.status().message();
    EXPECT_TRUE(BitEqual(*got, *want)) << "cut=" << cut;
  }
}

TEST(FlossOnlineTest, MemoryFootprintConstantOverStreamLifetime) {
  Result<std::unique_ptr<OnlineDetector>> online =
      MakeOnlineDetector("floss:16:128", 0);
  ASSERT_TRUE(online.ok());
  std::vector<ScoredPoint> sink;
  ASSERT_TRUE((*online)->Observe(0.5, &sink).ok());
  const std::size_t at_start = (*online)->MemoryFootprint();
  Rng rng(3);
  for (std::size_t t = 0; t < 5000; ++t) {
    ASSERT_TRUE((*online)->Observe(rng.Gaussian(), &sink).ok());
  }
  EXPECT_EQ((*online)->MemoryFootprint(), at_start)
      << "the bounded ring must not grow the footprint";
}

// Fails Observe() exactly once when the inner detector has observed
// `fail_at` points, BEFORE forwarding, so the inner state is untouched
// and the engine's checkpoint-replay recovery is exercised cleanly.
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

TEST(FlossServingTest, QuarantineRecoveryReplaysAcrossAnEviction) {
  // The fault fires at point 70, between the evictions at 64 and 80;
  // the points buffered during quarantine carry the stream past the
  // eviction at 80, so the recovery replay must prune mid-replay and
  // still land byte-identical on the batch scores.
  auto fired = std::make_shared<std::atomic<bool>>(false);
  ServingConfig config;
  config.num_shards = 1;
  config.recovery.max_retries = 3;
  config.recovery.backoff_pumps = 1;
  config.detector_decorator =
      [fired](std::unique_ptr<OnlineDetector> inner, const std::string&)
      -> Result<std::unique_ptr<OnlineDetector>> {
    return std::unique_ptr<OnlineDetector>(
        std::make_unique<FailOnceDetector>(std::move(inner), 70, fired));
  };
  ShardedEngine engine(config);
  ASSERT_TRUE(engine.AddStream("s", "floss:16:64").ok());

  const Series x = TwoRegimeSeries();
  const Series head(x.begin(), x.begin() + 200);
  for (std::size_t t = 0; t < head.size(); ++t) {
    ASSERT_TRUE(engine.Push("s", head[t]).ok());
    if (t % 32 == 31) {
      ASSERT_TRUE(engine.Pump().ok());
    }
  }
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(engine.Pump().ok());

  EXPECT_TRUE(fired->load());
  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.quarantines, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_TRUE(engine.StreamStatus("s").ok());

  const Result<std::vector<double>> got = engine.FinishStream("s");
  ASSERT_TRUE(got.ok()) << got.status().message();
  const Result<std::unique_ptr<AnomalyDetector>> batch =
      MakeDetector("floss:16:64");
  ASSERT_TRUE(batch.ok());
  const Result<std::vector<double>> want = (*batch)->Score(head, 0);
  ASSERT_TRUE(want.ok());
  EXPECT_TRUE(BitEqual(*got, *want));
}

TEST(FlossServingTest, EngineReportsPerTypeMemory) {
  ServingConfig config;
  config.num_shards = 1;
  ShardedEngine engine(config);
  ASSERT_TRUE(engine.AddStream("f1", "floss:16:128").ok());
  ASSERT_TRUE(engine.AddStream("f2", "floss:16:128").ok());
  ASSERT_TRUE(engine.AddStream("z", "zscore:w=16").ok());

  Rng rng(9);
  for (std::size_t t = 0; t < 300; ++t) {
    const double v = rng.Gaussian();
    ASSERT_TRUE(engine.Push("f1", v).ok());
    ASSERT_TRUE(engine.Push("f2", v).ok());
    ASSERT_TRUE(engine.Push("z", v).ok());
  }
  ASSERT_TRUE(engine.Pump().ok());

  const ServingStats before = engine.stats();
  ASSERT_EQ(before.detector_memory.count("floss"), 1u);
  ASSERT_EQ(before.detector_memory.count("zscore"), 1u);
  const DetectorTypeStats floss = before.detector_memory.at("floss");
  EXPECT_EQ(floss.streams, 2u);
  EXPECT_GT(floss.bytes, 0u);
  EXPECT_EQ(floss.bytes % floss.streams, 0u)
      << "identical specs must report identical footprints";

  // The bounded ring keeps the per-type bytes CONSTANT as points flow.
  for (std::size_t t = 0; t < 500; ++t) {
    const double v = rng.Gaussian();
    ASSERT_TRUE(engine.Push("f1", v).ok());
    ASSERT_TRUE(engine.Push("f2", v).ok());
  }
  ASSERT_TRUE(engine.Pump().ok());
  const ServingStats after = engine.stats();
  EXPECT_EQ(after.detector_memory.at("floss").bytes, floss.bytes);
}

TEST(FlossServingTest, DetectorTypeKeyCollapsesSpecs) {
  EXPECT_EQ(DetectorTypeKey("floss:16:128"), "floss");
  EXPECT_EQ(DetectorTypeKey("floss"), "floss");
  EXPECT_EQ(DetectorTypeKey("resilient:floss:16:128"), "resilient:floss");
  EXPECT_EQ(DetectorTypeKey("zscore:w=16"), "zscore");
}

}  // namespace
}  // namespace tsad
