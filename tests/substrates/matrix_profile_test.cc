#include "substrates/matrix_profile.h"

#include <cmath>
#include <limits>
#include <thread>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/series.h"
#include "common/vector_ops.h"
#include "profile_equivalence.h"
#include "substrates/profile_internal.h"

namespace tsad {
namespace {

using testing::ComputeMatrixProfileNaive;

Series SineWithSpike(std::size_t n, std::size_t spike_at) {
  Series x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(2.0 * 3.14159265 * static_cast<double>(i) / 50.0);
  }
  x[spike_at] += 5.0;
  return x;
}

TEST(DistanceProfileTest, SelfMatchHasZeroDistance) {
  Rng rng(2);
  Series x(400);
  for (double& v : x) v = rng.Gaussian();
  const std::size_t m = 32;
  const Result<std::vector<double>> profile = DistanceProfile(x, 100, m);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  ASSERT_EQ(profile->size(), x.size() - m + 1);
  EXPECT_NEAR((*profile)[100], 0.0, 1e-6);
  // Every entry is a valid z-normalized distance: within [0, 2*sqrt(m)].
  for (double d : *profile) {
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 2.0 * std::sqrt(static_cast<double>(m)) + 1e-9);
  }
}

TEST(DistanceProfileTest, AffineCopyMatches) {
  Rng rng(3);
  Series x(300);
  for (double& v : x) v = rng.Gaussian();
  // Plant an affine copy of x[40, 72) at 200.
  for (std::size_t i = 0; i < 32; ++i) x[200 + i] = 3.0 * x[40 + i] + 11.0;
  const Result<std::vector<double>> profile = DistanceProfile(x, 40, 32);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_NEAR((*profile)[200], 0.0, 1e-6);  // z-norm kills scale & offset
}

TEST(DistanceProfileTest, FlatVsNonFlatConvention) {
  Series x(100, 1.0);
  for (std::size_t i = 50; i < 100; ++i) {
    x[i] = std::sin(static_cast<double>(i));
  }
  const std::size_t m = 16;
  const double sqrt_two_m = std::sqrt(2.0 * static_cast<double>(m));
  // Flat window vs flat window: exactly 0. Flat vs dynamic: exactly
  // sqrt(2m), from either side.
  const Result<std::vector<double>> flat = DistanceProfile(x, 10, m);
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  EXPECT_EQ((*flat)[0], 0.0);
  EXPECT_EQ((*flat)[70], sqrt_two_m);
  const Result<std::vector<double>> dynamic = DistanceProfile(x, 70, m);
  ASSERT_TRUE(dynamic.ok()) << dynamic.status().ToString();
  EXPECT_EQ((*dynamic)[10], sqrt_two_m);
}

TEST(DistanceProfileTest, MatchesNaiveOracle) {
  for (const testing::ProfileTestFamily& family :
       testing::SimulatorFamilies()) {
    const std::size_t count = family.values.size() - family.m + 1;
    for (const std::size_t pos : {std::size_t{0}, count / 2, count - 1}) {
      EXPECT_TRUE(testing::ExpectDistanceProfileEquivalence(family.values,
                                                            pos, family.m))
          << family.name << " pos=" << pos;
    }
  }
  // A 1e6-level flat run inside an O(1) walk: queries before, inside
  // and after the run.
  Rng rng(5);
  Series walk(2000);
  double level = 0.0;
  for (double& v : walk) v = level += rng.Gaussian();
  for (std::size_t i = 900; i < 1000; ++i) walk[i] = 1e6;
  for (const std::size_t pos : {100, 920, 1500}) {
    EXPECT_TRUE(testing::ExpectDistanceProfileEquivalence(walk, pos, 32))
        << "pos=" << pos;
  }
}

TEST(DistanceProfileTest, RejectsBadArguments) {
  const Series x(100, 0.0);
  EXPECT_FALSE(DistanceProfile(x, 0, 1).ok());    // m < 2
  EXPECT_FALSE(DistanceProfile(x, 90, 16).ok());  // runs past the end
  EXPECT_FALSE(DistanceProfile(x, 0, 101).ok());  // no subsequence at all
  EXPECT_TRUE(DistanceProfile(x, 84, 16).ok());   // the last subsequence
}

TEST(MatrixProfileTest, MatchesNaive) {
  Rng rng(7);
  Series x(256);
  for (double& v : x) v = rng.Gaussian();
  const std::size_t m = 16;
  Result<MatrixProfile> fast = ComputeMatrixProfile(x, m);
  Result<MatrixProfile> naive = ComputeMatrixProfileNaive(x, m);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(naive.ok());
  ASSERT_EQ(fast->size(), naive->size());
  for (std::size_t i = 0; i < fast->size(); ++i) {
    EXPECT_NEAR(fast->distances[i], naive->distances[i], 1e-6) << "i=" << i;
  }
}

TEST(MatrixProfileTest, DiscordPeaksAtPlantedAnomaly) {
  const Series x = SineWithSpike(1000, 600);
  Result<MatrixProfile> mp = ComputeMatrixProfile(x, 50);
  ASSERT_TRUE(mp.ok());
  const auto discords = TopDiscords(*mp, 1);
  ASSERT_EQ(discords.size(), 1u);
  // The top discord must cover the spike at 600.
  EXPECT_GE(discords[0].position + 50, 600u);
  EXPECT_LE(discords[0].position, 600u);
}

TEST(MatrixProfileTest, RejectsBadArguments) {
  EXPECT_FALSE(ComputeMatrixProfile({1, 2, 3}, 1).ok());       // m < 2
  EXPECT_FALSE(ComputeMatrixProfile({1, 2, 3}, 3).ok());       // 1 subsequence
  Series x(100, 0.0);
  EXPECT_FALSE(ComputeMatrixProfile(x, 10, 95).ok());          // huge exclusion
}

TEST(MatrixProfileTest, ExclusionZonePreventsTrivialMatches) {
  Rng rng(9);
  Series x(300);
  for (double& v : x) v = rng.Gaussian();
  Result<MatrixProfile> mp = ComputeMatrixProfile(x, 20);
  ASSERT_TRUE(mp.ok());
  for (std::size_t i = 0; i < mp->size(); ++i) {
    ASSERT_NE(mp->indices[i], kNoNeighbor);
    const std::size_t j = mp->indices[i];
    const std::size_t gap = i > j ? i - j : j - i;
    EXPECT_GT(gap, 10u) << "trivial match at i=" << i;  // m/2 = 10
  }
}

TEST(TopDiscordsTest, SuppressesOverlaps) {
  const Series x = SineWithSpike(1000, 500);
  Result<MatrixProfile> mp = ComputeMatrixProfile(x, 50);
  ASSERT_TRUE(mp.ok());
  const auto discords = TopDiscords(*mp, 3);
  ASSERT_GE(discords.size(), 2u);
  for (std::size_t a = 0; a < discords.size(); ++a) {
    for (std::size_t b = a + 1; b < discords.size(); ++b) {
      const std::size_t gap = discords[a].position > discords[b].position
                                  ? discords[a].position - discords[b].position
                                  : discords[b].position - discords[a].position;
      EXPECT_GT(gap, 50u);
    }
  }
  // Ranked by decreasing distance.
  for (std::size_t a = 1; a < discords.size(); ++a) {
    EXPECT_GE(discords[a - 1].distance, discords[a].distance);
  }
}

TEST(TopDiscordsTest, KLargerThanAvailable) {
  Rng rng(10);
  Series x(120);
  for (double& v : x) v = rng.Gaussian();
  Result<MatrixProfile> mp = ComputeMatrixProfile(x, 16);
  ASSERT_TRUE(mp.ok());
  const auto discords = TopDiscords(*mp, 100);
  EXPECT_LT(discords.size(), 100u);  // exhausts eligible positions
  EXPECT_GE(discords.size(), 1u);
}

// Property sweep: the self-join matches the naive oracle across
// subsequence lengths.
class ProfileLengths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ProfileLengths, MatchesNaive) {
  const std::size_t m = GetParam();
  Rng rng(m);
  Series x(200);
  for (double& v : x) v = rng.Uniform(-1, 1);
  Result<MatrixProfile> fast = ComputeMatrixProfile(x, m);
  Result<MatrixProfile> naive = ComputeMatrixProfileNaive(x, m);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(naive.ok());
  for (std::size_t i = 0; i < fast->size(); ++i) {
    EXPECT_NEAR(fast->distances[i], naive->distances[i], 1e-6)
        << "m=" << m << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, ProfileLengths,
                         ::testing::Values(2, 3, 4, 8, 16, 33, 64, 99));

// ---------------------------------------------------------------------------
// Thread-count sweeps.

// Restores the pool size on scope exit so thread-sweeping tests cannot
// leak a setting into later tests.
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

TEST(MatrixProfileTest, MatchesNaiveAtEveryThreadCount) {
  // The naive O(n^2 m) profile is thread-count-free ground truth; the
  // MPX join must stay within rounding of it (EXPECT_NEAR — a different
  // algorithm, so bit-equality is not expected) at 1, 2, and
  // hardware_concurrency threads.
  ThreadCountGuard guard;
  Rng rng(44);
  Series x(300);
  for (double& v : x) v = rng.Gaussian();
  const std::size_t m = 24;
  Result<MatrixProfile> naive = ComputeMatrixProfileNaive(x, m);
  ASSERT_TRUE(naive.ok());
  for (const std::size_t threads : ThreadCountsToTest()) {
    SetParallelThreads(threads);
    Result<MatrixProfile> fast = ComputeMatrixProfile(x, m);
    ASSERT_TRUE(fast.ok());
    ASSERT_EQ(fast->size(), naive->size());
    for (std::size_t i = 0; i < fast->size(); ++i) {
      EXPECT_NEAR(fast->distances[i], naive->distances[i], 1e-6)
          << "i=" << i << " threads=" << threads;
    }
  }
}

TEST(MatrixProfileTest, FlatRegionsMatchNaive) {
  // A random walk with a long constant run: flat windows whose nearest
  // flat neighbor is in the same run (distance 0), flat windows at the
  // run's edges whose candidates are dynamic (sqrt(2m)), and dynamic
  // windows next to the run for which a flat partner must score
  // sqrt(2m), not sqrt(m) — the zero-vector convention of a naive
  // z-normalization would make that partner their nearest neighbor.
  const auto walk = [](std::size_t n, uint64_t seed) {
    Rng rng(seed);
    Series x(n);
    double level = 0.0;
    for (double& v : x) {
      level += rng.Gaussian();
      v = level;
    }
    return x;
  };
  Series x = walk(600, 1);
  for (std::size_t i = 240; i < 360; ++i) x[i] = x[239];
  const std::size_t m = 32;
  const double sqrt_m = std::sqrt(static_cast<double>(m));

  const Result<MatrixProfile> naive = ComputeMatrixProfileNaive(x, m);
  ASSERT_TRUE(naive.ok());
  // The series really exercises the rule: some dynamic window sits
  // farther than sqrt(m) from every dynamic candidate.
  const WindowStats stats = ComputeWindowStats(x, m);
  std::size_t far_dynamic = 0;
  for (std::size_t i = 0; i < naive->size(); ++i) {
    if (!profile_internal::IsFlat(stats.means[i], stats.stds[i]) &&
        naive->distances[i] > sqrt_m) {
      ++far_dynamic;
    }
  }
  EXPECT_GT(far_dynamic, 0u);

  EXPECT_TRUE(testing::ExpectProfileEquivalence(x, m, *naive));
  const Result<MatrixProfile> left_naive =
      testing::ComputeLeftMatrixProfileNaive(x, m);
  ASSERT_TRUE(left_naive.ok());
  EXPECT_TRUE(testing::ExpectLeftProfileEquivalence(x, m, *left_naive));
  // A second walk with its own flat run: flat query windows meet the
  // reference run at 0, dynamic ones meet it at sqrt(2m).
  Series query = walk(300, 2);
  for (std::size_t i = 100; i < 160; ++i) query[i] = query[99];
  const Result<MatrixProfile> ab_naive =
      testing::ComputeAbJoinNaive(query, x, m);
  ASSERT_TRUE(ab_naive.ok());
  EXPECT_TRUE(testing::ExpectAbJoinEquivalence(query, x, m, *ab_naive));
}

TEST(MatrixProfileTest, LeftProfileBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(43);
  Series x(700);
  for (double& v : x) v = rng.Gaussian();
  SetParallelThreads(1);
  Result<MatrixProfile> serial = ComputeLeftMatrixProfile(x, 20);
  ASSERT_TRUE(serial.ok());
  for (const std::size_t threads : ThreadCountsToTest()) {
    SetParallelThreads(threads);
    Result<MatrixProfile> parallel = ComputeLeftMatrixProfile(x, 20);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->distances, serial->distances) << "threads=" << threads;
    EXPECT_EQ(parallel->indices, serial->indices) << "threads=" << threads;
  }
}

TEST(MatrixProfileTest, AbJoinBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(44);
  Series a(500), b(650);
  for (double& v : a) v = rng.Gaussian();
  for (double& v : b) v = rng.Gaussian();
  SetParallelThreads(1);
  Result<MatrixProfile> serial = ComputeAbJoin(a, b, 24);
  ASSERT_TRUE(serial.ok());
  for (const std::size_t threads : ThreadCountsToTest()) {
    SetParallelThreads(threads);
    Result<MatrixProfile> parallel = ComputeAbJoin(a, b, 24);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->distances, serial->distances) << "threads=" << threads;
    EXPECT_EQ(parallel->indices, serial->indices) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// TopDiscords: the sort-based pass must reproduce the round-based
// greedy rescan (frozen below, verbatim) exactly — same positions, same
// order — including ties and non-finite entries.

std::vector<Discord> TopDiscordsRoundBased(const MatrixProfile& profile,
                                           std::size_t k,
                                           std::size_t exclusion) {
  std::vector<Discord> discords;
  std::vector<uint8_t> eligible(profile.size(), 1);
  for (std::size_t round = 0; round < k; ++round) {
    double best = -1.0;
    std::size_t best_i = kNoNeighbor;
    for (std::size_t i = 0; i < profile.size(); ++i) {
      if (!eligible[i]) continue;
      if (!std::isfinite(profile.distances[i])) continue;
      if (profile.distances[i] > best) {
        best = profile.distances[i];
        best_i = i;
      }
    }
    if (best_i == kNoNeighbor) break;
    Discord d;
    d.position = best_i;
    d.distance = profile.distances[best_i];
    d.nearest_neighbor = profile.indices[best_i];
    discords.push_back(d);
    const std::size_t lo = best_i > exclusion ? best_i - exclusion : 0;
    const std::size_t hi = std::min(profile.size(), best_i + exclusion + 1);
    for (std::size_t p = lo; p < hi; ++p) eligible[p] = 0;
  }
  return discords;
}

TEST(TopDiscordsTest, SortBasedMatchesRoundBasedWithTiesAndInfs) {
  Rng rng(45);
  MatrixProfile profile;
  profile.subsequence_length = 10;
  profile.distances.resize(500);
  profile.indices.resize(500);
  for (std::size_t i = 0; i < profile.size(); ++i) {
    // Coarse quantization forces many exact ties; sprinkle +inf (never
    // a discord: it means "no neighbor info") among them.
    profile.distances[i] = std::floor(rng.Uniform(0, 8));
    if (i % 97 == 0) {
      profile.distances[i] = std::numeric_limits<double>::infinity();
    }
    profile.indices[i] = i / 2;
  }
  for (const std::size_t k : {1u, 3u, 7u, 100u}) {
    for (const std::size_t exclusion : {0u, 5u, 25u}) {
      const auto expected = TopDiscordsRoundBased(profile, k, exclusion);
      const auto got = TopDiscords(profile, k, exclusion);
      ASSERT_EQ(got.size(), expected.size())
          << "k=" << k << " exclusion=" << exclusion;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].position, expected[i].position);
        EXPECT_EQ(got[i].distance, expected[i].distance);
        EXPECT_EQ(got[i].nearest_neighbor, expected[i].nearest_neighbor);
      }
    }
  }
}

TEST(TopDiscordsTest, AllInfiniteProfileYieldsNoDiscords) {
  MatrixProfile profile;
  profile.subsequence_length = 4;
  profile.distances.assign(50, std::numeric_limits<double>::infinity());
  profile.indices.assign(50, kNoNeighbor);
  EXPECT_TRUE(TopDiscords(profile, 3).empty());
}

}  // namespace
}  // namespace tsad
