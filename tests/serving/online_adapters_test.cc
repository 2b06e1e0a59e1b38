// The contract under test: for every online-capable spec, replaying a
// series point by point through the adapter produces the batch
// detector's Score() output BYTE FOR BYTE — including when the stream
// is interrupted anywhere by a Snapshot()/Restore() pair into a fresh
// instance.

#include "serving/online_adapters.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/wire.h"
#include "common/series.h"
#include "detectors/registry.h"
#include "robustness/sanitize.h"
#include "serving/online_detector.h"

namespace tsad {
namespace {

Series SyntheticStream(std::size_t n, uint64_t seed) {
  // A taxi-like shape: daily-ish seasonality + drift + noise + one
  // injected level shift, so every detector family has something to
  // react to.
  Rng rng(seed);
  Series x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    double v = 10.0 + 4.0 * std::sin(t * 0.13) + 0.002 * t +
               rng.Gaussian(0.0, 0.4);
    if (i > n / 2 && i < n / 2 + 30) v += 6.0;  // anomalous bump
    x[i] = v;
  }
  return x;
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct SpecCase {
  std::string spec;
  std::size_t train_length;
};

// The stream with its first 100 points and points 300-399 held at one
// level: the training prefix of every reference-statistics case is
// constant, so its sigma sits on the 1e-9 floor, and the z-score
// windows slide through a constant run longer than they are.
Series FlatRunStream(std::size_t n, uint64_t seed) {
  Series x = SyntheticStream(n, seed);
  for (std::size_t i = 0; i < n; ++i) {
    if (i < 100 || (i >= 300 && i < 400)) x[i] = 7.5;
  }
  return x;
}

std::vector<SpecCase> EquivalenceCases() {
  return {
      {"zscore:w=32", 0},
      {"zscore:w=16", 0},
      // Longer than every stream here: the ring never fills.
      {"zscore:w=1000", 0},
      {"cusum:drift=0.5", 100},
      {"cusum:drift=0.25,reset=8", 64},
      {"ewma:lambda=0.2", 100},
      {"ewma:lambda=0.05", 8},
      {"pagehinkley:delta=0.05", 100},
      // train_length == n on the 700-point replay, so the prefix
      // completes on the last point; longer than the other streams.
      {"cusum:drift=0.5", 700},
      {"ewma:lambda=0.2", 700},
      {"pagehinkley:delta=0.05", 700},
      {"oneliner:u=1,k=7,c=2", 0},
      {"oneliner:abs=0,k=5,b=1", 0},
      {"oneliner:u=1", 0},
      {"streaming:m=24", 0},
      {"streaming:m=24,burnin=1", 0},
      {"streaming:m=8,burnin=40", 0},
      // Bounded-memory FLOSS: the 128-point ring evicts at 128, 160,
      // 192, ... on the 600/700-point streams, so the generic replay
      // and snapshot sweeps cross many eviction boundaries.
      {"floss:16:128", 0},
      {"floss:24", 0},
      // MERLIN buffers the whole stream and scores at Flush; bit
      // equality with the batch detector is by construction, but the
      // snapshot sweep still has to prove the buffer thaws exactly.
      {"merlin:min=24,max=40", 0},
      {"merlin:min=16,max=24", 0},
  };
}

std::vector<double> BatchScores(const SpecCase& c, const Series& x) {
  auto detector = MakeDetector(c.spec);
  EXPECT_TRUE(detector.ok()) << c.spec;
  auto scores = (*detector)->Score(x, c.train_length);
  EXPECT_TRUE(scores.ok()) << c.spec << ": " << scores.status().message();
  return *scores;
}

TEST(OnlineAdapterEquivalenceTest, ReplayMatchesBatchBitForBit) {
  const std::pair<std::string, Series> inputs[] = {
      {"synthetic", SyntheticStream(700, 42)},
      {"flat-run", FlatRunStream(700, 42)}};
  for (const auto& [input, x] : inputs) {
    for (const SpecCase& c : EquivalenceCases()) {
      SCOPED_TRACE(input + " " + c.spec +
                   " train=" + std::to_string(c.train_length));
      const std::vector<double> batch = BatchScores(c, x);

      auto online = MakeOnlineDetector(c.spec, c.train_length);
      ASSERT_TRUE(online.ok()) << online.status().message();
      auto replayed = ReplayScore(**online, x);
      ASSERT_TRUE(replayed.ok()) << replayed.status().message();
      EXPECT_TRUE(BitEqual(*replayed, batch));
    }
  }
}

TEST(OnlineAdapterEquivalenceTest, SnapshotRestoreMidStreamStaysBitExact) {
  // Cut points chosen to land in every interesting regime: inside the
  // training prefix / first window, right at its boundary, and deep in
  // the steady state.
  const std::size_t cuts[] = {0, 1, 31, 32, 99, 100, 101, 300, 599};
  const std::pair<std::string, Series> inputs[] = {
      {"synthetic", SyntheticStream(600, 7)},
      {"flat-run", FlatRunStream(600, 7)}};
  for (const auto& [input, x] : inputs) {
    for (const SpecCase& c : EquivalenceCases()) {
      const std::vector<double> batch = BatchScores(c, x);
      for (std::size_t cut : cuts) {
        SCOPED_TRACE(input + " " + c.spec +
                     " train=" + std::to_string(c.train_length) +
                     " cut=" + std::to_string(cut));

        auto first = MakeOnlineDetector(c.spec, c.train_length);
        ASSERT_TRUE(first.ok());
        std::vector<ScoredPoint> emitted;
        for (std::size_t i = 0; i < cut; ++i) {
          ASSERT_TRUE((*first)->Observe(x[i], &emitted).ok());
        }
        auto blob = (*first)->Snapshot();
        ASSERT_TRUE(blob.ok()) << blob.status().message();

        // Continue in a FRESH instance restored from the blob.
        auto second = MakeOnlineDetector(c.spec, c.train_length);
        ASSERT_TRUE(second.ok());
        ASSERT_TRUE((*second)->Restore(*blob).ok());
        EXPECT_EQ((*second)->observed(), cut);
        for (std::size_t i = cut; i < x.size(); ++i) {
          ASSERT_TRUE((*second)->Observe(x[i], &emitted).ok());
        }
        ASSERT_TRUE((*second)->Flush(&emitted).ok());

        auto assembled = AssembleScores(emitted, x.size(), c.spec);
        ASSERT_TRUE(assembled.ok()) << assembled.status().message();
        EXPECT_TRUE(BitEqual(*assembled, batch));
      }
    }
  }
}

// Replays `x` through `spec`, handing the stream to a freshly restored
// instance after every point t with (t + 1) % every == 0.
std::vector<double> ReplayWithRestores(const SpecCase& c, const Series& x,
                                       std::size_t every) {
  auto online = MakeOnlineDetector(c.spec, c.train_length);
  EXPECT_TRUE(online.ok()) << c.spec;
  std::vector<ScoredPoint> emitted;
  for (std::size_t t = 0; t < x.size(); ++t) {
    EXPECT_TRUE((*online)->Observe(x[t], &emitted).ok()) << "t=" << t;
    if ((t + 1) % every != 0) continue;
    auto blob = (*online)->Snapshot();
    EXPECT_TRUE(blob.ok()) << "t=" << t;
    auto restored = MakeOnlineDetector(c.spec, c.train_length);
    EXPECT_TRUE(restored.ok());
    EXPECT_TRUE((*restored)->Restore(*blob).ok()) << "t=" << t;
    online = std::move(restored);
  }
  EXPECT_TRUE((*online)->Flush(&emitted).ok());
  auto assembled = AssembleScores(emitted, x.size(), c.spec);
  EXPECT_TRUE(assembled.ok()) << assembled.status().message();
  return assembled.ok() ? *assembled : std::vector<double>{};
}

// Blocks of `block` points cycling through {scale, offset} levels:
// offset + scale * N(0, 1), so a zero scale makes a block constant.
Series ScaledBlocks(std::size_t n, std::size_t block,
                    const std::vector<std::pair<double, double>>& levels,
                    uint64_t seed) {
  Rng rng(seed);
  Series x(n);
  for (std::size_t t = 0; t < n; ++t) {
    const auto& [scale, offset] = levels[(t / block) % levels.size()];
    x[t] = offset + scale * rng.Gaussian();
  }
  return x;
}

TEST(OnlineAdapterEquivalenceTest, RestoreStaysBitExactBeyondTheDoubleRange) {
  // The z-score's running sum of squares and streaming MPX's prefix
  // totals are long doubles; at these scales they leave the double
  // range, and a restored stream must still match batch bit for bit.
  for (const double scale : {1e160, 1e200}) {
    const Series x = ScaledBlocks(2000, 2000, {{scale, 0.0}}, 31);
    const SpecCase c{"zscore:w=64", 200};
    EXPECT_TRUE(BitEqual(ReplayWithRestores(c, x, 1000), BatchScores(c, x)))
        << "scale=" << scale;
  }
  const Series flat_huge = ScaledBlocks(600, 50, {{0.0, 5.0}, {1e200, 0.0}}, 32);
  const Series tiny_huge = ScaledBlocks(
      600, 30, {{0.0, 1e-200}, {1e170, 0.0}, {1.0, 0.0}}, 33);
  for (const std::size_t m : {3, 4, 8, 16, 32}) {
    for (const std::size_t buffer : {4 * m, 5 * m, 9 * m}) {
      const SpecCase c{
          "floss:" + std::to_string(m) + ":" + std::to_string(buffer), 0};
      for (const Series* x : {&flat_huge, &tiny_huge}) {
        EXPECT_TRUE(
            BitEqual(ReplayWithRestores(c, *x, 37), BatchScores(c, *x)))
            << c.spec << (x == &flat_huge ? " flat/1e200" : " 1e-200/1e170");
      }
    }
  }
}

TEST(OnlineAdapterEquivalenceTest, ShortStreamsMatchBatchFallbacks) {
  // Streams shorter than the training prefix / first window exercise
  // the batch paths' fallbacks (median/MAD, all-zero windows). The
  // one-point and two-point cases cover the one-liner special cases.
  for (std::size_t n : {1u, 2u, 5u, 31u}) {
    const Series x = SyntheticStream(n, 21);
    for (const SpecCase& c : EquivalenceCases()) {
      if (c.spec.rfind("streaming", 0) == 0) continue;  // needs m+1 points
      if (c.spec.rfind("floss", 0) == 0) continue;      // needs m+1 points
      if (c.spec.rfind("merlin", 0) == 0) continue;     // needs 2*max subseqs
      SCOPED_TRACE(c.spec + " n=" + std::to_string(n));
      const std::vector<double> batch = BatchScores(c, x);
      auto online = MakeOnlineDetector(c.spec, c.train_length);
      ASSERT_TRUE(online.ok());
      auto replayed = ReplayScore(**online, x);
      ASSERT_TRUE(replayed.ok()) << replayed.status().message();
      EXPECT_TRUE(BitEqual(*replayed, batch));
    }
  }
}

TEST(OnlineAdapterTest, StreamingDiscordTooShortMatchesBatchError) {
  const Series x = SyntheticStream(10, 3);  // < m+1 for m=24
  auto online = MakeOnlineDetector("streaming:m=24", 0);
  ASSERT_TRUE(online.ok());
  std::vector<ScoredPoint> emitted;
  for (double v : x) ASSERT_TRUE((*online)->Observe(v, &emitted).ok());
  const Status flush = (*online)->Flush(&emitted);
  EXPECT_EQ(flush.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(flush.message().find("2 subsequences"), std::string::npos);

  auto batch = MakeDetector("streaming:m=24");
  ASSERT_TRUE(batch.ok());
  auto scores = (*batch)->Score(x, 0);
  ASSERT_FALSE(scores.ok());
  EXPECT_EQ(scores.status().code(), flush.code());
}

TEST(OnlineAdapterTest, TooShortStreamsFlushTheBatchError) {
  // A stream too short to score ends with the very error batch Score
  // returns on the same points: the same code and the same message.
  const Series x = SyntheticStream(16, 4);  // one subsequence of 16
  for (const char* spec : {"streaming:m=16", "floss:16:128"}) {
    SCOPED_TRACE(spec);
    auto online = MakeOnlineDetector(spec, 0);
    ASSERT_TRUE(online.ok()) << online.status().message();
    std::vector<ScoredPoint> emitted;
    for (double v : x) ASSERT_TRUE((*online)->Observe(v, &emitted).ok());
    const Status flush = (*online)->Flush(&emitted);

    auto batch = MakeDetector(spec);
    ASSERT_TRUE(batch.ok());
    auto scores = (*batch)->Score(x, 0);
    ASSERT_FALSE(scores.ok());
    EXPECT_EQ(flush.code(), scores.status().code());
    EXPECT_EQ(flush.message(), scores.status().message());
  }
}

TEST(OnlineAdapterTest, StreamingDiscordRejectsPreStreamingMpxSnapshot) {
  // A snapshot written before streaming discord moved onto StreamingMpx:
  // the adapter header, then the old left-profile kernel layout (m,
  // exclusion, history, prefix sums, rolling stats, the latest dot
  // row). Restoring it must fail cleanly, never resume from garbage.
  auto online = MakeOnlineDetector("streaming:m=16", 0);
  ASSERT_TRUE(online.ok());
  const Series x = SyntheticStream(100, 6);
  const std::size_t m = 16;
  const std::size_t subs = x.size() - m + 1;
  std::vector<long double> sums(1, 0.0L), sq(1, 0.0L);
  for (double v : x) {
    sums.push_back(sums.back() + v);
    sq.push_back(sq.back() + static_cast<long double>(v) * v);
  }
  ByteWriter writer;
  writer.PutString((*online)->name());
  writer.PutU64(x.size());  // observed
  writer.PutU64(64);        // burn_in (4m)
  writer.PutU64(m);
  writer.PutU64(m / 2);     // exclusion
  writer.PutDoubles(x);
  writer.PutLongDoubles(sums);
  writer.PutLongDoubles(sq);
  writer.PutDoubles(std::vector<double>(subs, 0.0));  // means
  writer.PutDoubles(std::vector<double>(subs, 1.0));  // stds
  writer.PutDoubles(std::vector<double>(subs, 0.0));  // dot row
  const Status restored = (*online)->Restore(writer.str());
  EXPECT_EQ(restored.code(), StatusCode::kInvalidArgument)
      << restored.ToString();
}

TEST(OnlineAdapterTest, ZScoreRejectsZeroPaddedRingSnapshot) {
  // A snapshot taken inside the first window by a build whose ring was
  // sized to the whole window up front: 10 points seen, the ring
  // zero-padded to w = 32. The ring now holds only the points seen, so
  // this layout must be refused, not resumed with 22 phantom zeros.
  auto online = MakeOnlineDetector("zscore:w=32", 0);
  ASSERT_TRUE(online.ok());
  const Series x = SyntheticStream(10, 8);
  std::vector<double> ring(32, 0.0);
  long double sum = 0.0L, sq = 0.0L;
  for (std::size_t i = 0; i < x.size(); ++i) {
    ring[i] = x[i];
    sum += x[i];
    sq += static_cast<long double>(x[i]) * x[i];
  }
  ByteWriter writer;
  writer.PutString((*online)->name());
  writer.PutU64(x.size());  // observed
  writer.PutLongDouble(sum);
  writer.PutLongDouble(sq);
  writer.PutDoubles(ring);
  const Status restored = (*online)->Restore(writer.str());
  EXPECT_EQ(restored.code(), StatusCode::kInvalidArgument)
      << restored.ToString();
}

TEST(OnlineAdapterTest, HugeWindowsMatchBatchWithoutAllocatingThem) {
  // Windows of 2^62 points: nothing may be sized to the window before
  // its points arrive. A 100-point stream gets the batch answer.
  const Series x = SyntheticStream(100, 9);
  const std::string zscore = "zscore:w=4611686018427387904";
  auto z = MakeOnlineDetector(zscore, 0);
  ASSERT_TRUE(z.ok()) << z.status().message();
  auto z_scores = ReplayScore(**z, x);
  ASSERT_TRUE(z_scores.ok()) << z_scores.status().message();
  EXPECT_EQ(*z_scores, std::vector<double>(x.size(), 0.0));
  EXPECT_TRUE(BitEqual(*z_scores, BatchScores({zscore, 0}, x)));

  const std::string streaming = "streaming:m=4611686018427387904";
  auto s = MakeOnlineDetector(streaming, 0);
  ASSERT_TRUE(s.ok()) << s.status().message();
  auto s_scores = ReplayScore(**s, x);
  ASSERT_FALSE(s_scores.ok());
  EXPECT_EQ(s_scores.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s_scores.status().message().find("series too short"),
            std::string::npos);
  auto batch = MakeDetector(streaming);
  ASSERT_TRUE(batch.ok());
  auto batch_scores = (*batch)->Score(x, 0);
  ASSERT_FALSE(batch_scores.ok());
  EXPECT_EQ(batch_scores.status().message(), s_scores.status().message());
}

TEST(OnlineAdapterTest, FactoryRejectsUncausalAndUnknownConfigs) {
  // Reference-statistics detectors without a training prefix would need
  // the whole-series median — not causal, so the factory refuses.
  for (const char* spec : {"cusum", "ewma:lambda=0.3", "pagehinkley"}) {
    auto r = MakeOnlineDetector(spec, 0);
    ASSERT_FALSE(r.ok()) << spec;
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition) << spec;
    EXPECT_NE(r.status().message().find("train"), std::string::npos) << spec;
  }
  auto small = MakeOnlineDetector("cusum", 7);
  EXPECT_EQ(small.status().code(), StatusCode::kFailedPrecondition);

  // Valid batch detector, no online adapter.
  auto discord = MakeOnlineDetector("discord:m=64", 0);
  ASSERT_FALSE(discord.ok());
  EXPECT_EQ(discord.status().code(), StatusCode::kUnimplemented);
  EXPECT_NE(discord.status().message().find("zscore"), std::string::npos);

  // Bad spec errors pass through the batch registry untouched.
  auto typo = MakeOnlineDetector("zscoer", 0);
  ASSERT_FALSE(typo.ok());
  EXPECT_EQ(typo.status().code(), StatusCode::kNotFound);
  EXPECT_NE(typo.status().message().find("did you mean 'zscore'"),
            std::string::npos);

  // Streaming discord's m floor is enforced at construction.
  auto tiny_m = MakeOnlineDetector("streaming:m=2", 0);
  ASSERT_FALSE(tiny_m.ok());
  EXPECT_EQ(tiny_m.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(tiny_m.status().message().find("m >= 3"), std::string::npos);
}

TEST(OnlineAdapterTest, RestoreRejectsForeignBlobs) {
  const Series x = SyntheticStream(200, 5);
  auto zscore = MakeOnlineDetector("zscore:w=32", 0);
  ASSERT_TRUE(zscore.ok());
  std::vector<ScoredPoint> sink;
  for (double v : x) ASSERT_TRUE((*zscore)->Observe(v, &sink).ok());
  auto blob = (*zscore)->Snapshot();
  ASSERT_TRUE(blob.ok());

  // A different adapter type refuses the blob outright.
  auto oneliner = MakeOnlineDetector("oneliner:u=1", 0);
  ASSERT_TRUE(oneliner.ok());
  EXPECT_FALSE((*oneliner)->Restore(*blob).ok());

  // Same type, different parameters: the embedded name differs.
  auto other = MakeOnlineDetector("zscore:w=64", 0);
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE((*other)->Restore(*blob).ok());

  // Truncated blob.
  auto same = MakeOnlineDetector("zscore:w=32", 0);
  ASSERT_TRUE(same.ok());
  EXPECT_FALSE((*same)->Restore(blob->substr(0, blob->size() - 3)).ok());
}

// True when both emission lists hold the same indices and score bits in
// the same order.
bool SameEmissions(const std::vector<ScoredPoint>& a,
                   const std::vector<ScoredPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].index != b[i].index ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(OnlineAdapterTest, RefusedRestoreLeavesTheAdapterAsItWas) {
  // A restore that fails must never half-apply. Each adapter scores 300
  // points, is refused another stream's 200-point snapshot with bytes
  // appended, and must then emit exactly what an adapter that never
  // tried to restore emits. The wrappers get NaNs to impute, the first
  // right after the refusal, so their carried value is checked too.
  const Series clean = SyntheticStream(600, 51);
  Series dirty = clean;
  for (const std::size_t i : {300, 301, 455}) {
    dirty[i] = std::numeric_limits<double>::quiet_NaN();
  }
  const Series other = SyntheticStream(200, 52);
  std::vector<SpecCase> cases = EquivalenceCases();
  cases.push_back({"resilient:zscore:w=32", 0});
  cases.push_back({"resilient:streaming:m=16", 0});
  for (const SpecCase& c : cases) {
    SCOPED_TRACE(c.spec + " train=" + std::to_string(c.train_length));
    const Series& x = c.spec.rfind("resilient:", 0) == 0 ? dirty : clean;

    auto donor = MakeOnlineDetector(c.spec, c.train_length);
    ASSERT_TRUE(donor.ok());
    std::vector<ScoredPoint> sink;
    for (double v : other) ASSERT_TRUE((*donor)->Observe(v, &sink).ok());
    Result<std::string> foreign = (*donor)->Snapshot();
    ASSERT_TRUE(foreign.ok());
    foreign->append("junk");

    auto tried = MakeOnlineDetector(c.spec, c.train_length);
    auto untouched = MakeOnlineDetector(c.spec, c.train_length);
    ASSERT_TRUE(tried.ok());
    ASSERT_TRUE(untouched.ok());
    std::vector<ScoredPoint> got, want;
    for (std::size_t t = 0; t < x.size(); ++t) {
      if (t == 300) {
        EXPECT_FALSE((*tried)->Restore(*foreign).ok());
        EXPECT_EQ((*tried)->observed(), 300u);
      }
      ASSERT_TRUE((*tried)->Observe(x[t], &got).ok()) << "t=" << t;
      ASSERT_TRUE((*untouched)->Observe(x[t], &want).ok()) << "t=" << t;
    }
    ASSERT_TRUE((*tried)->Flush(&got).ok());
    ASSERT_TRUE((*untouched)->Flush(&want).ok());
    EXPECT_TRUE(SameEmissions(got, want));
  }
}

TEST(OnlineAdapterTest, RestoreRefusesAnObservedCountItsStateContradicts) {
  // Every snapshot leads with the adapter name, then `observed`. Taken
  // after 200 points and rewritten to 190 or 210, it must be refused
  // wherever the state carries its own count: the streaming kernels, the
  // one-liner's diff track, MERLIN's buffer, a z-score ring that has not
  // filled, and a reference-statistics prefix still buffering. A full
  // z-score ring and a fitted prefix hold no count to compare with.
  const Series x = SyntheticStream(200, 61);
  for (const SpecCase& c : EquivalenceCases()) {
    const bool full_ring = c.spec.rfind("zscore:w=", 0) == 0 &&
                           std::stoul(c.spec.substr(9)) <= x.size();
    const bool fitted = c.train_length > 0 && c.train_length <= x.size();
    if (full_ring || fitted) continue;
    auto online = MakeOnlineDetector(c.spec, c.train_length);
    ASSERT_TRUE(online.ok()) << c.spec;
    std::vector<ScoredPoint> sink;
    for (double v : x) ASSERT_TRUE((*online)->Observe(v, &sink).ok());
    Result<std::string> blob = (*online)->Snapshot();
    ASSERT_TRUE(blob.ok());
    const std::size_t at = 8 + (*online)->name().size();  // past the name
    for (const std::uint64_t observed : {190, 210}) {
      SCOPED_TRACE(c.spec + " train=" + std::to_string(c.train_length) +
                   " observed=" + std::to_string(observed));
      ByteWriter count;
      count.PutU64(observed);
      std::string damaged = *blob;
      damaged.replace(at, 8, count.str());
      auto fresh = MakeOnlineDetector(c.spec, c.train_length);
      ASSERT_TRUE(fresh.ok());
      const Status restored = (*fresh)->Restore(damaged);
      EXPECT_EQ(restored.code(), StatusCode::kInvalidArgument)
          << restored.ToString();
      EXPECT_EQ((*fresh)->observed(), 0u);
    }
    // The untouched blob still restores.
    auto fresh = MakeOnlineDetector(c.spec, c.train_length);
    ASSERT_TRUE(fresh.ok());
    EXPECT_TRUE((*fresh)->Restore(*blob).ok()) << c.spec;
  }
}

TEST(OnlineAdapterTest, OnlineCapableNamesMatchesFactoryBehavior) {
  const std::vector<std::string> names = OnlineCapableDetectorNames();
  for (const std::string& name : names) {
    // "resilient" is a decorator prefix, not a standalone detector;
    // train_length=100 satisfies the reference-stats precondition.
    const std::string spec =
        name == "resilient" ? "resilient:zscore:w=32" : name;
    auto r = MakeOnlineDetector(spec, 100);
    EXPECT_TRUE(r.ok()) << spec << ": " << r.status().message();
    if (r.ok()) {
      EXPECT_NE(std::string((*r)->name()).find("online"), std::string::npos)
          << spec;
    }
  }
}

TEST(OnlineAdapterTest, MemoryFootprintCoversHeapBuffers) {
  // The engine's memory budget is only as honest as these numbers: each
  // adapter must charge at least its object plus every growable buffer,
  // and the footprint must not shrink as buffers fill. It also bounds
  // the adapter's snapshot blob at every point, which is what the
  // engine's failover Snapshot sizes its buffer from.
  const Series x = SyntheticStream(500, 13);
  std::vector<SpecCase> cases = EquivalenceCases();
  cases.push_back({"resilient:zscore:w=32", 0});
  for (const SpecCase& c : cases) {
    SCOPED_TRACE(c.spec);
    auto r = MakeOnlineDetector(c.spec, c.train_length);
    ASSERT_TRUE(r.ok());
    const std::size_t empty = (*r)->MemoryFootprint();
    EXPECT_GE(empty, sizeof(OnlineDetector));
    std::vector<ScoredPoint> sink;
    for (std::size_t t = 0; t <= x.size(); ++t) {
      const Result<std::string> blob = (*r)->Snapshot();
      ASSERT_TRUE(blob.ok());
      ASSERT_LE(blob->size(), (*r)->MemoryFootprint()) << "after " << t;
      if (t < x.size()) {
        ASSERT_TRUE((*r)->Observe(x[t], &sink).ok());
      }
    }
    EXPECT_GE((*r)->MemoryFootprint(), empty);
  }
  // A warmed-up windowed adapter must charge for its ring.
  auto zscore = MakeOnlineDetector("zscore:w=64", 0);
  ASSERT_TRUE(zscore.ok());
  std::vector<ScoredPoint> sink;
  for (double v : x) ASSERT_TRUE((*zscore)->Observe(v, &sink).ok());
  EXPECT_GE((*zscore)->MemoryFootprint(), 64 * sizeof(double));
}

TEST(OnlineSanitizerTest, DirtyStreamMatchesInnerOnSanitizedStream) {
  // The wrapper's contract: wrapper(dirty) == inner(causally-sanitized
  // dirty), byte for byte — including through Snapshot/Restore.
  Series dirty = SyntheticStream(400, 17);
  Rng rng(99);
  double last_good = 0.0;
  bool have_good = false;
  Series sanitized;
  for (double& v : dirty) {
    const double roll = rng.NextDouble();
    if (roll < 0.04) {
      v = std::numeric_limits<double>::quiet_NaN();
    } else if (roll < 0.08) {
      v = kDefaultSentinel;
    } else if (roll < 0.10) {
      v = std::numeric_limits<double>::infinity();
    }
    if (std::isfinite(v) && v != kDefaultSentinel) {
      last_good = v;
      have_good = true;
      sanitized.push_back(v);
    } else {
      sanitized.push_back(have_good ? last_good : 0.0);
    }
  }

  for (const char* inner_spec : {"zscore:w=32", "streaming:m=16"}) {
    SCOPED_TRACE(inner_spec);
    auto inner = MakeOnlineDetector(inner_spec, 0);
    ASSERT_TRUE(inner.ok());
    auto clean_scores = ReplayScore(**inner, sanitized);
    ASSERT_TRUE(clean_scores.ok());

    auto wrapped =
        MakeOnlineDetector("resilient:" + std::string(inner_spec), 0);
    ASSERT_TRUE(wrapped.ok()) << wrapped.status().message();
    auto dirty_scores = ReplayScore(**wrapped, dirty);
    ASSERT_TRUE(dirty_scores.ok());
    EXPECT_TRUE(BitEqual(*dirty_scores, *clean_scores));
  }
}

TEST(OnlineSanitizerTest, SnapshotRestoreCarriesImputationState) {
  // Cut right after a run of bad points: the carried-forward value and
  // patch counter must survive the round trip.
  Series dirty = SyntheticStream(120, 23);
  dirty[57] = std::numeric_limits<double>::quiet_NaN();
  dirty[58] = kDefaultSentinel;
  dirty[59] = std::numeric_limits<double>::quiet_NaN();

  auto reference = MakeOnlineDetector("resilient:zscore:w=16", 0);
  ASSERT_TRUE(reference.ok());
  auto expected = ReplayScore(**reference, dirty);
  ASSERT_TRUE(expected.ok());

  auto first = MakeOnlineDetector("resilient:zscore:w=16", 0);
  ASSERT_TRUE(first.ok());
  std::vector<ScoredPoint> points;
  for (std::size_t t = 0; t < 60; ++t) {
    ASSERT_TRUE((*first)->Observe(dirty[t], &points).ok());
  }
  auto blob = (*first)->Snapshot();
  ASSERT_TRUE(blob.ok());

  auto second = MakeOnlineDetector("resilient:zscore:w=16", 0);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE((*second)->Restore(*blob).ok());
  EXPECT_EQ((*second)->observed(), 60u);
  for (std::size_t t = 60; t < dirty.size(); ++t) {
    ASSERT_TRUE((*second)->Observe(dirty[t], &points).ok());
  }
  ASSERT_TRUE((*second)->Flush(&points).ok());
  auto assembled = AssembleScores(points, dirty.size(), "test");
  ASSERT_TRUE(assembled.ok()) << assembled.status().message();
  EXPECT_TRUE(BitEqual(*assembled, *expected));
}

TEST(OnlineSanitizerTest, CountsPatchedPoints) {
  auto inner = MakeOnlineDetector("zscore:w=8", 0);
  ASSERT_TRUE(inner.ok());
  OnlineSanitizer sanitizer(std::move(*inner));
  std::vector<ScoredPoint> sink;
  ASSERT_TRUE(sanitizer.Observe(1.0, &sink).ok());
  ASSERT_TRUE(
      sanitizer.Observe(std::numeric_limits<double>::quiet_NaN(), &sink).ok());
  ASSERT_TRUE(sanitizer.Observe(kDefaultSentinel, &sink).ok());
  ASSERT_TRUE(sanitizer.Observe(2.0, &sink).ok());
  EXPECT_EQ(sanitizer.points_patched(), 2u);
  EXPECT_EQ(sanitizer.observed(), 4u);
}

TEST(OnlineSanitizerTest, FactoryRejectsEmptyAndUnknownInner) {
  auto empty = MakeOnlineDetector("resilient:", 0);
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  auto typo = MakeOnlineDetector("resilient:zscoer", 0);
  ASSERT_FALSE(typo.ok());
  EXPECT_EQ(typo.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace tsad
