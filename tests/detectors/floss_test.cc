#include "detectors/floss.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "common/cpu_features.h"
#include "common/rng.h"
#include "common/series.h"
#include "common/wire.h"
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

// The arc count FlossCore::Step once recomputed at every point, kept
// here as the oracle for its running total: every retained
// subsequence's Right() neighbour, recounted from scratch, turned into
// the score by the same formula.
double OracleScore(const FlossCore& core, std::size_t lag) {
  const StreamingMpx& mpx = core.kernel();
  const std::size_t num_subs = mpx.num_subsequences();
  if (num_subs < 2 * lag + 1) return 0.0;
  const std::size_t p = num_subs - 1 - lag;
  const std::size_t first = mpx.first_subsequence();
  std::size_t arcs = 0;
  for (std::size_t i = 0; i < p; ++i) {
    const StreamingMpx::Entry entry = mpx.Right(i);
    if (entry.neighbor == kNoNeighbor) continue;
    if (entry.neighbor - first > p) ++arcs;  // arc (i, nn) crosses p
  }
  const double last = static_cast<double>(num_subs - 1);
  const double pd = static_cast<double>(p);
  const double iac = (last - pd) * std::log(last / (last - pd));
  if (!(iac > 0.0)) return 0.0;
  const double cac = std::min(1.0, static_cast<double>(arcs) / iac);
  return 1.0 - cac;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Blocks of `block` points cycling through `levels`: each point of a
// {scale, offset} block is offset + scale * N(0, 1), so a zero scale
// makes the block constant.
struct Level {
  double scale;
  double offset;
};

Series Blocks(std::size_t n, std::size_t block,
              const std::vector<Level>& levels, std::uint64_t seed) {
  Rng rng(seed);
  Series x(n);
  for (std::size_t t = 0; t < n; ++t) {
    const Level& level = levels[(t / block) % levels.size()];
    x[t] = level.offset + level.scale * rng.Gaussian();
  }
  return x;
}

struct ArcFamily {
  std::string name;
  Series (*make)(std::size_t n);
};

// The adversarial inputs for the running arc count: flat windows,
// windows whose variance overflows a double (inv == 0 without being
// listed flat), exact ties, NaN and infinities. The first NaN or
// infinity poisons the kernel's running window totals for the rest of
// the stream, so those two families cover that regime too.
const std::vector<ArcFamily>& ArcFamilies() {
  static const std::vector<ArcFamily> families = {
      {"noise", [](std::size_t n) { return Blocks(n, n, {{1.0, 0.0}}, 1); }},
      {"flat_runs",
       [](std::size_t n) { return Blocks(n, 150, {{1.0, 0.0}, {1.0, 0.0}, {1.0, 0.0}, {0.0, 2.5}}, 2); }},
      {"flat_bursts",
       [](std::size_t n) { return Blocks(n, 8, {{1.0, 0.0}, {1.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}}, 3); }},
      {"periodic_ties",
       [](std::size_t n) {
         Series x(n);
         for (std::size_t t = 0; t < n; ++t) {
           x[t] = static_cast<double>((t * 7) % 20);
         }
         return x;
       }},
      {"nan",
       [](std::size_t n) {
         Series x = Blocks(n, n, {{1.0, 0.0}}, 4);
         Rng rng(5);
         for (double& v : x) {
           if (rng.NextDouble() < 0.01) v = std::nan("");
         }
         return x;
       }},
      {"all_flat", [](std::size_t n) { return Series(n, 3.0); }},
      {"zero_blocks",
       [](std::size_t n) { return Blocks(n, 100, {{1.0, 0.0}, {1.0, 0.0}, {1.0, 0.0}, {0.0, 0.0}}, 6); }},
      {"level_jumps",
       [](std::size_t n) {
         Series x = Blocks(n, n, {{1.0, 0.0}}, 7);
         for (std::size_t t = 0; t < n; ++t) {
           x[t] += 1e3 * static_cast<double>((t / 500) % 3);
         }
         return x;
       }},
      {"infinities",
       [](std::size_t n) {
         Series x = Blocks(n, n, {{1.0, 0.0}}, 8);
         Rng rng(9);
         for (double& v : x) {
           const double u = rng.NextDouble();
           if (u < 0.003) v = std::numeric_limits<double>::infinity();
           if (u > 0.997) v = -std::numeric_limits<double>::infinity();
         }
         return x;
       }},
      {"huge_noise", [](std::size_t n) { return Blocks(n, n, {{1e200, 0.0}}, 10); }},
      {"flat_huge_mix",
       [](std::size_t n) { return Blocks(n, 50, {{0.0, 5.0}, {1e200, 0.0}}, 11); }},
      {"tiny_huge_mix",
       [](std::size_t n) {
         return Blocks(n, 30, {{0.0, 1e-200}, {1e170, 0.0}, {1.0, 0.0}}, 12);
       }},
  };
  return families;
}

struct ArcCase {
  std::size_t m;
  std::size_t buffer;
  std::size_t n;
};

// m = 3 and m = 64 at buffer 4m (an eviction every m pushes) and 4096
// (the default, evicting once 4096 points are in).
constexpr ArcCase kArcCases[] = {
    {3, 12, 600}, {3, 4096, 4400}, {64, 256, 1500}, {64, 4096, 4400}};

// Restores the forced tier on scope exit, so it cannot leak into later
// tests.
class TierGuard {
 public:
  ~TierGuard() { ClearSimdTierOverride(); }
};

struct ArcParam {
  std::string family;
  SimdTier tier;
};

void PrintTo(const ArcParam& param, std::ostream* os) {
  *os << param.family << "/" << SimdTierName(param.tier);
}

class FlossArcOracleTest : public ::testing::TestWithParam<ArcParam> {};

// After every Step, the score equals the one the recounted arcs give,
// bit for bit. Along the way a fresh core is restored from a snapshot
// every 37 points and right after each eviction, and the restored run
// must stay on the uninterrupted run's scores.
TEST_P(FlossArcOracleTest, RunningCountMatchesTheRecount) {
  const ArcParam& param = GetParam();
  if (param.tier > DetectSimdTier()) {
    GTEST_SKIP() << SimdTierName(param.tier) << " not supported here";
  }
  TierGuard guard;
  ASSERT_TRUE(SetSimdTierOverride(param.tier).ok());
  const ArcFamily* family = nullptr;
  for (const ArcFamily& f : ArcFamilies()) {
    if (f.name == param.family) family = &f;
  }
  ASSERT_NE(family, nullptr);

  std::size_t restores_in_flat = 0;
  for (const ArcCase& c : kArcCases) {
    FlossParams params;
    params.m = c.m;
    params.buffer_cap = c.buffer;
    const Series x = family->make(c.n);
    FlossCore reference(params);
    auto core = std::make_unique<FlossCore>(params);
    std::size_t restores_after_eviction = 0;
    for (std::size_t t = 0; t < x.size(); ++t) {
      const std::uint64_t evictions = core->kernel().evictions();
      const double want = reference.Step(x[t]);
      const double got = core->Step(x[t]);
      ASSERT_TRUE(SameBits(got, OracleScore(*core, c.m)))
          << "m=" << c.m << " buffer=" << c.buffer << " t=" << t;
      ASSERT_TRUE(SameBits(got, want))
          << "m=" << c.m << " buffer=" << c.buffer << " t=" << t;
      const bool evicted = core->kernel().evictions() != evictions;
      if (t % 37 == 36 || evicted) {
        ByteWriter writer;
        core->Serialize(&writer);
        auto restored = std::make_unique<FlossCore>(params);
        ByteReader reader(writer.str());
        ASSERT_TRUE(restored->Deserialize(&reader, t + 1).ok()) << "t=" << t;
        ASSERT_TRUE(reader.ExpectDone().ok()) << "t=" << t;
        core = std::move(restored);
        if (evicted) ++restores_after_eviction;
        const StreamingMpx& mpx = core->kernel();
        if (mpx.num_subsequences() > 1 &&
            mpx.IsFlatAt(mpx.num_subsequences() - 1) &&
            mpx.IsFlatAt(mpx.num_subsequences() - 2)) {
          ++restores_in_flat;
        }
      }
    }
    EXPECT_GT(restores_after_eviction, 0u)
        << "m=" << c.m << " buffer=" << c.buffer;
  }
  if (param.family == "flat_runs" || param.family == "all_flat") {
    EXPECT_GT(restores_in_flat, 0u);
  }
}

std::vector<ArcParam> ArcParams() {
  std::vector<ArcParam> params;
  for (const ArcFamily& family : ArcFamilies()) {
    for (int tier = 0; tier < kNumSimdTiers; ++tier) {
      params.push_back({family.name, static_cast<SimdTier>(tier)});
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndTiers, FlossArcOracleTest, ::testing::ValuesIn(ArcParams()),
    [](const ::testing::TestParamInfo<ArcParam>& info) {
      return info.param.family + "_" + SimdTierName(info.param.tier);
    });

// One push that changes more neighbours than the change log holds: a
// long run of 1e200-scale noise (windows whose variance overflows, so
// inv == 0 without a listed flat) ends in a flat run, and the first
// listed flat becomes the neighbour of every one of them. The running
// count must fall back to the recount and stay on the oracle.
TEST(FlossArcOracleTest, LogOverflowFallsBackToTheRecount) {
  FlossParams params;
  params.m = 16;
  params.buffer_cap = 4096;
  Series x = Blocks(1200, 600, {{1e200, 0.0}, {0.0, 4.0}}, 21);
  FlossCore core(params);
  std::size_t most_changed = 0;
  std::vector<std::size_t> before;
  for (std::size_t t = 0; t < x.size(); ++t) {
    const StreamingMpx& mpx = core.kernel();
    before.clear();
    for (std::size_t i = 0; i < mpx.num_subsequences(); ++i) {
      before.push_back(mpx.Right(i).neighbor);
    }
    const double got = core.Step(x[t]);
    ASSERT_EQ(mpx.evictions(), 0u);
    std::size_t changed = 0;
    for (std::size_t i = 0; i < before.size(); ++i) {
      if (mpx.Right(i).neighbor != before[i]) ++changed;
    }
    most_changed = std::max(most_changed, changed);
    ASSERT_TRUE(SameBits(got, OracleScore(core, params.m))) << "t=" << t;
  }
  EXPECT_GT(most_changed, RightChangeLog::kCapacity);
}

TEST(FlossSpecTest, ParsesPositionalGrammar) {
  const Result<FlossParams> bare = ParseFlossSpec("floss");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->m, 64u);
  EXPECT_EQ(bare->buffer_cap, kDefaultFlossBufferCap);

  const Result<FlossParams> windowed = ParseFlossSpec("floss:24");
  ASSERT_TRUE(windowed.ok());
  EXPECT_EQ(windowed->m, 24u);
  EXPECT_EQ(windowed->buffer_cap, kDefaultFlossBufferCap);

  const Result<FlossParams> full = ParseFlossSpec("floss:24:96");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->m, 24u);
  EXPECT_EQ(full->buffer_cap, 96u);
}

TEST(FlossSpecTest, RejectsDegenerateSpecs) {
  EXPECT_FALSE(ParseFlossSpec("floss:2").ok());      // window < 3
  EXPECT_FALSE(ParseFlossSpec("floss:24:50").ok());  // buffer < 4 * window
  EXPECT_FALSE(ParseFlossSpec("floss:24:0").ok());   // no eviction: unbounded
  // 4 * window wraps to 0 in a size_t: still too small, not accepted.
  const Result<FlossParams> huge =
      ParseFlossSpec("floss:4611686018427387904:64");
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(huge.status().message().find("18446744073709551616"),
            std::string::npos)
      << huge.status().message();
  // A buffer whose up-front reservation passes the kernel's limit is
  // refused when the spec is built, not when the reservation fails.
  const Result<FlossParams> huge_buffer =
      ParseFlossSpec("floss:16:1099511627776");
  ASSERT_FALSE(huge_buffer.ok());
  EXPECT_EQ(huge_buffer.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(huge_buffer.status().message().find("kMaxStreamingMpxBytes"),
            std::string::npos)
      << huge_buffer.status().message();
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
