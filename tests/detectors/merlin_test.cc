#include "detectors/merlin.h"

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../substrates/profile_equivalence.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/ucr_archive.h"
#include "merlin_oracle.h"

namespace tsad {
namespace {

using testing::MerlinSweepPerLength;

class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(ParallelThreads()) {}
  ~ThreadCountGuard() { SetParallelThreads(saved_); }

 private:
  std::size_t saved_;
};

std::vector<std::size_t> ThreadCountsToTest() {
  std::vector<std::size_t> counts = {1, 2};
  const std::size_t hw = std::thread::hardware_concurrency();
  if (hw > 2) counts.push_back(hw);
  return counts;
}

Series RandomWalk(std::size_t n, uint64_t seed) {
  Rng rng(seed);
  Series x(n);
  double level = 0.0;
  for (double& v : x) {
    level += rng.Gaussian();
    v = level;
  }
  return x;
}

// A walk with two flat runs at different levels, so every length sees
// flat-flat, flat-dynamic and dynamic-flat races.
Series WalkWithFlats(std::size_t n, uint64_t seed) {
  Series x = RandomWalk(n, seed);
  for (std::size_t i = n / 4; i < n / 4 + 160 && i < n; ++i) x[i] = 3.25;
  for (std::size_t i = (2 * n) / 3; i < (2 * n) / 3 + 160 && i < n; ++i) {
    x[i] = -7.5;
  }
  return x;
}

// No subsequence resembles another, so carried neighbours go stale
// every length: the worst case for the search's bounds.
Series WhiteNoise(std::size_t n, uint64_t seed) {
  Rng rng(seed);
  Series x(n);
  for (double& v : x) v = rng.Gaussian();
  return x;
}

// MerlinSweep against the per-length oracle: same lengths, same
// positions, distances within 1e-6.
::testing::AssertionResult MatchesPerLengthOracle(const Series& x,
                                                  std::size_t min_length,
                                                  std::size_t max_length) {
  const Result<std::vector<LengthDiscord>> sweep =
      MerlinSweep(x, min_length, max_length);
  const Result<std::vector<LengthDiscord>> oracle =
      MerlinSweepPerLength(x, min_length, max_length);
  if (!sweep.ok() || !oracle.ok()) {
    return ::testing::AssertionFailure()
           << (sweep.ok() ? oracle : sweep).status().ToString();
  }
  if (sweep->size() != oracle->size()) {
    return ::testing::AssertionFailure()
           << sweep->size() << " lengths vs " << oracle->size();
  }
  for (std::size_t i = 0; i < sweep->size(); ++i) {
    const LengthDiscord& a = (*sweep)[i];
    const LengthDiscord& b = (*oracle)[i];
    if (a.length != b.length || a.position != b.position ||
        std::fabs(a.distance - b.distance) > 1e-6) {
      return ::testing::AssertionFailure()
             << "length " << b.length << ": sweep (" << a.length << ", "
             << a.position << ", " << a.distance << ") vs oracle ("
             << b.position << ", " << b.distance << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

Series PeriodicWithDistortedCycle(std::size_t n, std::size_t weird_at,
                                  std::size_t weird_len, uint64_t seed) {
  Rng rng(seed);
  Series x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(2.0 * 3.14159265 * static_cast<double>(i) / 50.0) +
           rng.Gaussian(0.0, 0.02);
  }
  for (std::size_t i = weird_at; i < weird_at + weird_len && i < n; ++i) {
    const double t =
        static_cast<double>(i - weird_at) / static_cast<double>(weird_len);
    x[i] = 0.9 * std::sin(2.0 * 3.14159265 * t * 4.0) + rng.Gaussian(0.0, 0.02);
  }
  return x;
}

TEST(MerlinSweepTest, EveryLengthReportsTheAnomalyRegion) {
  const Series x = PeriodicWithDistortedCycle(1500, 800, 50, 4);
  Result<std::vector<LengthDiscord>> sweep = MerlinSweep(x, 40, 60);
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  ASSERT_EQ(sweep->size(), 21u);  // lengths 40..60 inclusive
  std::size_t hits = 0;
  for (const LengthDiscord& d : *sweep) {
    EXPECT_EQ(d.normalized,
              d.distance / std::sqrt(static_cast<double>(d.length)));
    if (d.position + d.length + 30 > 800 && d.position < 880) ++hits;
  }
  // The distorted cycle should dominate at (nearly) every length.
  EXPECT_GE(hits, 18u);
}

TEST(MerlinSweepTest, PanSweepMatchesPerLengthOracle) {
  // The sweep must reproduce the per-length recompute's LengthDiscord
  // output exactly: same length grid, same positions (ties to the
  // lowest position at every length). Distances agree to
  // refinement-row-vs-recurrence rounding; both sides derive
  // `normalized` from their own distance.
  const Series x = PeriodicWithDistortedCycle(1500, 700, 60, 6);
  Result<std::vector<LengthDiscord>> pan = MerlinSweep(x, 36, 72);
  Result<std::vector<LengthDiscord>> oracle = MerlinSweepPerLength(x, 36, 72);
  ASSERT_TRUE(pan.ok()) << pan.status().ToString();
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_EQ(pan->size(), oracle->size());
  for (std::size_t i = 0; i < pan->size(); ++i) {
    SCOPED_TRACE("length " + std::to_string((*oracle)[i].length));
    EXPECT_EQ((*pan)[i].length, (*oracle)[i].length);
    EXPECT_EQ((*pan)[i].position, (*oracle)[i].position);
    EXPECT_NEAR((*pan)[i].distance, (*oracle)[i].distance, 1e-6);
    EXPECT_NEAR((*pan)[i].normalized, (*oracle)[i].normalized, 1e-6);
  }
}

TEST(MerlinSweepTest, MatchesPerLengthOracleOnWhiteNoise) {
  EXPECT_TRUE(MatchesPerLengthOracle(WhiteNoise(2048, 31), 24, 48));
}

TEST(MerlinSweepTest, MatchesPerLengthOracleThroughBoundRefreshes) {
  // Near the shortest series MERLIN accepts for [48, 96]: count / m is
  // 2-5, so the row budget (2 * count / m rows) is 4-10 and on noise
  // some lengths overrun it and refresh every bound from the self-join
  // mid-scan.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    EXPECT_TRUE(MatchesPerLengthOracle(WhiteNoise(300, seed), 48, 96))
        << "seed " << seed;
  }
}

TEST(MerlinSweepTest, MatchesPerLengthOracleOnPedestrianRecordings) {
  // The 768-point weekly pedestrian counts: short and noisy, where
  // carried neighbours help least.
  std::size_t checked = 0;
  for (const LabeledSeries& s : BuildFullArchive(1).datasets) {
    if (s.name().find("pedestrian") == std::string::npos) continue;
    Series x = s.values();
    x.resize(768);
    EXPECT_TRUE(MatchesPerLengthOracle(x, 48, 96)) << s.name();
    ++checked;
  }
  EXPECT_EQ(checked, 5u);
}

TEST(MerlinSweepTest, MatchesPerLengthOracleAcrossConstantRuns) {
  // 400 constant points: flat subsequences tie at distance 0 with each
  // other at every length.
  Series x = RandomWalk(3000, 32);
  for (std::size_t i = 1000; i < 1400; ++i) x[i] = 2.5;
  EXPECT_TRUE(MatchesPerLengthOracle(x, 24, 48));
  // 60 constant points: from m = 40 on no two flat subsequences clear
  // each other's exclusion zone, so every flat sits at exactly sqrt(2m),
  // above any dynamic discord — an exact tie the lowest flat must win.
  Series y = RandomWalk(3000, 34);
  for (std::size_t i = 1500; i < 1560; ++i) y[i] = 4.0;
  EXPECT_TRUE(MatchesPerLengthOracle(y, 24, 48));
}

TEST(MerlinSweepTest, MatchesPerLengthOracleOnAnOffsetWalk) {
  Series x = RandomWalk(3000, 33);
  for (double& v : x) v += 1e6;
  EXPECT_TRUE(MatchesPerLengthOracle(x, 24, 48));
}

TEST(MerlinSweepTest, PerLengthBaselineRejectsBadRangesIdentically) {
  const Series x(500, 1.0);
  EXPECT_FALSE(MerlinSweepPerLength(x, 2, 10).ok());
  EXPECT_FALSE(MerlinSweepPerLength(x, 60, 40).ok());
  EXPECT_FALSE(MerlinSweepPerLength(x, 40, 400).ok());
}

TEST(MerlinSweepTest, RejectsBadRanges) {
  const Series x(500, 1.0);
  EXPECT_FALSE(MerlinSweep(x, 2, 10).ok());    // min too small
  EXPECT_FALSE(MerlinSweep(x, 60, 40).ok());   // inverted
  EXPECT_FALSE(MerlinSweep(x, 40, 400).ok());  // series too short
}

// 2 * 2^63 wraps to 0 in a size_t, so a doubled max_length once passed
// the length check and the sweep threw reserving 2^63 rows.
TEST(MerlinSweepTest, RejectsAMaxLengthWhoseDoubleWraps) {
  const Series x(500, 1.0);
  const std::size_t huge = std::size_t{1} << 63;
  for (const auto& sweep : {MerlinSweep, MerlinSweepPerLength}) {
    const Result<std::vector<LengthDiscord>> rows = sweep(x, 40, huge);
    ASSERT_FALSE(rows.ok());
    EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(rows.status().message().find(
                  "series too short for MERLIN at max_length "
                  "9223372036854775808"),
              std::string::npos)
        << rows.status().ToString();
  }
}

// The all-lengths ("pan") discord contract of MerlinSweep, per length:
// the position TopDiscords(ComputeMatrixProfile(series, m), 1)
// reports, with the distance re-measured exactly (the oracle's distance
// rides the kernel recurrence, so it agrees to rounding, not bits).
TEST(PanDiscordTest, MatchesPerLengthTopDiscordOnEveryFamily) {
  for (const testing::ProfileTestFamily& family :
       testing::SimulatorFamilies()) {
    const Result<std::vector<LengthDiscord>> sweep =
        MerlinSweep(family.values, family.m - 4, family.m + 4);
    ASSERT_TRUE(sweep.ok()) << family.name << ": "
                            << sweep.status().message();
    ASSERT_EQ(sweep->size(), 9u) << family.name;
    for (const LengthDiscord& d : *sweep) {
      const Result<MatrixProfile> mp =
          ComputeMatrixProfile(family.values, d.length);
      ASSERT_TRUE(mp.ok()) << family.name << " m=" << d.length;
      const std::vector<Discord> top = TopDiscords(*mp, 1);
      ASSERT_EQ(top.size(), 1u) << family.name << " m=" << d.length;
      EXPECT_EQ(d.position, top[0].position)
          << family.name << " m=" << d.length;
      EXPECT_NEAR(d.distance, top[0].distance, 1e-6)
          << family.name << " m=" << d.length;
      EXPECT_DOUBLE_EQ(d.normalized,
                       d.distance / std::sqrt(static_cast<double>(d.length)));
    }
  }
}

TEST(PanDiscordTest, BitIdenticalAcrossThreadCounts) {
  // White noise keeps the refinement running several batches, and the
  // short series takes the refresh path, so batch application order is
  // what is checked there.
  ThreadCountGuard guard;
  const struct {
    Series x;
    std::size_t min_length, max_length;
  } inputs[] = {{WalkWithFlats(5000, 23), 48, 80},
                {WhiteNoise(2048, 24), 24, 48},
                {WhiteNoise(300, 3), 48, 96}};
  for (const auto& in : inputs) {
    SetParallelThreads(1);
    const Result<std::vector<LengthDiscord>> anchor =
        MerlinSweep(in.x, in.min_length, in.max_length);
    ASSERT_TRUE(anchor.ok()) << anchor.status().message();
    for (const std::size_t threads : ThreadCountsToTest()) {
      SetParallelThreads(threads);
      const Result<std::vector<LengthDiscord>> sweep =
          MerlinSweep(in.x, in.min_length, in.max_length);
      ASSERT_TRUE(sweep.ok()) << sweep.status().message();
      ASSERT_EQ(sweep->size(), anchor->size());
      for (std::size_t i = 0; i < sweep->size(); ++i) {
        EXPECT_EQ((*sweep)[i].length, (*anchor)[i].length);
        EXPECT_EQ((*sweep)[i].position, (*anchor)[i].position)
            << "m=" << (*sweep)[i].length << " threads=" << threads;
        EXPECT_EQ((*sweep)[i].distance, (*anchor)[i].distance)
            << "m=" << (*sweep)[i].length << " threads=" << threads;
      }
    }
  }
}

TEST(PanDiscordTest, RejectsDegenerateRanges) {
  const Series x = RandomWalk(500, 7);
  EXPECT_FALSE(MerlinSweep(x, 64, 32).ok());
  EXPECT_FALSE(MerlinSweep(x, 1, 32).ok());
  EXPECT_FALSE(MerlinSweep(x, 32, 400).ok());
  EXPECT_TRUE(MerlinSweep(x, 32, 64).ok());
}

TEST(MerlinDetectorTest, ScoreTrackPeaksAtAnomaly) {
  const Series x = PeriodicWithDistortedCycle(1500, 1000, 50, 5);
  MerlinDetector detector(45, 55);
  Result<std::vector<double>> scores = detector.Score(x, 0);
  ASSERT_TRUE(scores.ok());
  ASSERT_EQ(scores->size(), x.size());
  const std::size_t peak = PredictLocation(*scores, 0);
  EXPECT_GE(peak + 60, 1000u);
  EXPECT_LE(peak, 1110u);
}

TEST(MerlinDetectorTest, NameDescribesRange) {
  MerlinDetector detector(32, 64);
  EXPECT_EQ(detector.name(), "MERLIN[32..64]");
}

}  // namespace
}  // namespace tsad
