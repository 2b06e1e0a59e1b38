#include <cmath>
#include <cstddef>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "common/parallel.h"
#include "common/rng.h"
#include "common/series.h"
#include "profile_equivalence.h"
#include "robustness/sanitize.h"
#include "substrates/matrix_profile.h"

namespace tsad {
namespace {

using testing::ComputeMatrixProfileNaive;
using testing::ExpectProfileEquivalence;

MatrixProfile Oracle(const Series& x, std::size_t m) {
  Result<MatrixProfile> oracle = ComputeMatrixProfileNaive(x, m);
  EXPECT_TRUE(oracle.ok()) << oracle.status().message();
  return oracle.ok() ? *oracle : MatrixProfile{};
}

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

TEST(MpxKernelTest, EquivalenceOnRandomWalkAtEveryThreadCount) {
  ThreadCountGuard guard;
  const Series x = RandomWalk(3000, 41);
  for (const std::size_t m : {8u, 21u, 64u}) {
    const MatrixProfile oracle = Oracle(x, m);
    for (const std::size_t threads : ThreadCountsToTest()) {
      SetParallelThreads(threads);
      EXPECT_TRUE(ExpectProfileEquivalence(x, m, oracle))
          << "m=" << m << " threads=" << threads;
    }
  }
}

TEST(MpxKernelTest, EquivalenceOnFlatRegions) {
  ThreadCountGuard guard;
  Series x = RandomWalk(1500, 42);
  // Exactly-constant runs exercise every SCAMP special case: flat rows
  // whose nearest flat neighbor is in the OTHER run (distance 0 across
  // a long gap), flat rows whose only candidates are dynamic
  // (sqrt(2m)), and dynamic rows bordered by flat columns. The second
  // run sits at a large level so the relative flatness threshold is
  // exercised too.
  for (std::size_t i = 200; i < 280; ++i) x[i] = 7.5;
  for (std::size_t i = 900; i < 1000; ++i) x[i] = 1.0e6;
  for (const std::size_t m : {16u, 17u}) {
    const MatrixProfile oracle = Oracle(x, m);
    for (const std::size_t threads : ThreadCountsToTest()) {
      SetParallelThreads(threads);
      EXPECT_TRUE(ExpectProfileEquivalence(x, m, oracle))
          << "m=" << m << " threads=" << threads;
    }
  }
}

TEST(MpxKernelTest, EquivalenceOnNanSanitizedInput) {
  ThreadCountGuard guard;
  Series damaged = RandomWalk(2000, 43);
  for (std::size_t i = 150; i < 2000; i += 137) {
    damaged[i] = std::numeric_limits<double>::quiet_NaN();
  }
  const Result<SanitizedSeries> repaired = SanitizeSeries(damaged);
  ASSERT_TRUE(repaired.ok());
  const MatrixProfile oracle = Oracle(repaired->values, 32);
  for (const std::size_t threads : ThreadCountsToTest()) {
    SetParallelThreads(threads);
    EXPECT_TRUE(ExpectProfileEquivalence(repaired->values, 32, oracle))
        << "threads=" << threads;
  }
}

TEST(MpxKernelTest, EquivalenceOnEverySimulatorFamily) {
  ThreadCountGuard guard;
  // The shared per-family builder (profile_equivalence.h) — the same
  // set the join and SIMD-dispatch certifications sweep.
  const std::vector<testing::ProfileTestFamily> families =
      testing::SimulatorFamilies();
  ASSERT_EQ(families.size(), 7u);
  for (const testing::ProfileTestFamily& family : families) {
    const MatrixProfile oracle = Oracle(family.values, family.m);
    for (const std::size_t threads : ThreadCountsToTest()) {
      SetParallelThreads(threads);
      EXPECT_TRUE(ExpectProfileEquivalence(family.values, family.m, oracle))
          << family.name << " threads=" << threads;
    }
  }
}

TEST(MpxKernelTest, MpxBitIdenticalAcrossThreadCounts) {
  // The per-tile merge is a lexicographic max, so MPX itself (not just
  // its agreement with the oracle) must be EXACTLY reproducible at any
  // thread count — EXPECT_EQ on doubles, not EXPECT_NEAR.
  ThreadCountGuard guard;
  const Series x = RandomWalk(3000, 44);
  const std::size_t m = 32;
  SetParallelThreads(1);
  const Result<MatrixProfile> serial = ComputeMatrixProfile(x, m);
  ASSERT_TRUE(serial.ok());
  for (const std::size_t threads : ThreadCountsToTest()) {
    SetParallelThreads(threads);
    const Result<MatrixProfile> parallel = ComputeMatrixProfile(x, m);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->distances, serial->distances)
        << "threads=" << threads;
    EXPECT_EQ(parallel->indices, serial->indices) << "threads=" << threads;
  }
}

TEST(MpxKernelTest, ExclusionZoneConventionIsSharedAndDocumentedOnce) {
  // The m/2 (floor) self-join zone and the m discord zone are defined
  // exactly once (matrix_profile.h); these pins are the regression
  // tripwire for anyone reintroducing a literal with different
  // rounding. Even m=64: j = i+32 excluded, i+33 eligible. Odd m=65
  // floors to the same 32.
  EXPECT_EQ(DefaultSelfJoinExclusion(64), 32u);
  EXPECT_EQ(DefaultSelfJoinExclusion(65), 32u);
  EXPECT_EQ(DefaultDiscordExclusion(64), 64u);

  // The join must enforce the zone: no reported neighbor may ever be a
  // trivial match.
  const Series x = RandomWalk(1200, 45);
  const std::size_t m = 64;
  const std::size_t exclusion = DefaultSelfJoinExclusion(m);
  const Result<MatrixProfile> profile = ComputeMatrixProfile(x, m);
  ASSERT_TRUE(profile.ok());
  for (std::size_t i = 0; i < profile->size(); ++i) {
    const std::size_t j = profile->indices[i];
    ASSERT_NE(j, kNoNeighbor);
    const std::size_t gap = i > j ? i - j : j - i;
    EXPECT_GT(gap, exclusion) << "i=" << i << " j=" << j;
  }
}

TEST(MpxKernelTest, RejectsDegenerateInputsLikeNaive) {
  const Series x = RandomWalk(64, 46);
  // Same shared validation (profile_internal.h), same messages.
  EXPECT_EQ(ComputeMatrixProfile(x, 1).status().message(),
            ComputeMatrixProfileNaive(x, 1).status().message());
  EXPECT_EQ(ComputeMatrixProfile(Series{1.0, 2.0}, 8).status().message(),
            ComputeMatrixProfileNaive(Series{1.0, 2.0}, 8).status().message());
  EXPECT_EQ(ComputeMatrixProfile(x, 8, 60).status().message(),
            ComputeMatrixProfileNaive(x, 8, 60).status().message());
  EXPECT_FALSE(ComputeMatrixProfile(x, 8, 60).ok());
}

}  // namespace
}  // namespace tsad
