// Certification of the MPX cross-join kernels (AB-join + left profile)
// against the naive oracle, via the shared profile-equivalence harness:
// simulator families at every thread count, flat-region edge cases,
// bit-identity across thread counts and rejection semantics. The
// cross-ISA-tier sweeps live in simd_dispatch_test.cc with the rest of
// the SIMD certification.

#include <cmath>
#include <cstddef>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "common/parallel.h"
#include "common/rng.h"
#include "common/series.h"
#include "profile_equivalence.h"
#include "substrates/matrix_profile.h"

namespace tsad {
namespace {

using testing::ExpectAbJoinEquivalence;
using testing::ExpectLeftProfileEquivalence;

MatrixProfile AbOracle(const Series& query, const Series& reference,
                       std::size_t m) {
  Result<MatrixProfile> oracle =
      testing::ComputeAbJoinNaive(query, reference, m);
  EXPECT_TRUE(oracle.ok()) << oracle.status().message();
  return oracle.ok() ? *oracle : MatrixProfile{};
}

MatrixProfile LeftOracle(const Series& x, std::size_t m) {
  Result<MatrixProfile> oracle = testing::ComputeLeftMatrixProfileNaive(x, m);
  EXPECT_TRUE(oracle.ok()) << oracle.status().message();
  return oracle.ok() ? *oracle : MatrixProfile{};
}

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

// Splits a family series into disjoint halves so the AB-join certifies
// a genuinely asymmetric (query, reference) pair from the same
// generator — the realistic shape of the semi-supervised join.
void SplitHalves(const std::vector<double>& x, std::vector<double>* first,
                 std::vector<double>* second) {
  const std::size_t half = x.size() / 2;
  first->assign(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(half));
  second->assign(x.begin() + static_cast<std::ptrdiff_t>(half), x.end());
}

TEST(AbJoinMpxTest, EquivalenceOnEverySimulatorFamilyAtEveryThreadCount) {
  ThreadCountGuard guard;
  for (const testing::ProfileTestFamily& family :
       testing::SimulatorFamilies()) {
    std::vector<double> query, reference;
    SplitHalves(family.values, &query, &reference);
    const MatrixProfile oracle = AbOracle(query, reference, family.m);
    const MatrixProfile transposed = AbOracle(reference, query, family.m);
    for (const std::size_t threads : ThreadCountsToTest()) {
      SetParallelThreads(threads);
      EXPECT_TRUE(ExpectAbJoinEquivalence(query, reference, family.m, oracle))
          << family.name << " threads=" << threads;
      // And the transposed pair, so both sweep orders (nq < nr and
      // nq > nr) see every family.
      EXPECT_TRUE(
          ExpectAbJoinEquivalence(reference, query, family.m, transposed))
          << family.name << " (transposed) threads=" << threads;
    }
  }
}

TEST(AbJoinMpxTest, EquivalenceOnFlatRegions) {
  ThreadCountGuard guard;
  // Flat runs on BOTH sides: flat query subsequences whose nearest flat
  // lives in the reference (exact 0 at the LOWEST flat reference
  // index), and dynamic queries bordered by flat reference columns
  // (corr 0 contributions).
  Series query = RandomWalk(900, 51);
  Series reference = RandomWalk(1100, 52);
  for (std::size_t i = 200; i < 260; ++i) query[i] = 3.25;
  for (std::size_t i = 400; i < 480; ++i) reference[i] = 3.25;
  for (std::size_t i = 700; i < 760; ++i) reference[i] = 1.0e6;
  for (const std::size_t m : {16u, 17u}) {
    const MatrixProfile oracle = AbOracle(query, reference, m);
    for (const std::size_t threads : ThreadCountsToTest()) {
      SetParallelThreads(threads);
      EXPECT_TRUE(ExpectAbJoinEquivalence(query, reference, m, oracle))
          << "m=" << m << " threads=" << threads;
    }
  }
}

TEST(AbJoinMpxTest, FlatQueryWithoutFlatReferenceGetsSqrtTwoM) {
  // The other SCAMP special case: a flat query subsequence whose
  // candidates are ALL dynamic must land on exactly sqrt(2m).
  Series query = RandomWalk(400, 53);
  Series reference = RandomWalk(400, 54);
  const std::size_t m = 24;
  for (std::size_t i = 100; i < 140; ++i) query[i] = -2.0;
  EXPECT_TRUE(ExpectAbJoinEquivalence(query, reference, m,
                                      AbOracle(query, reference, m)));
  const Result<MatrixProfile> join = ComputeAbJoin(query, reference, m);
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(join->distances[110], std::sqrt(2.0 * static_cast<double>(m)));
}

TEST(AbJoinMpxTest, BitIdenticalAcrossThreadCounts) {
  // Tiles merge through a lexicographic max, so the MPX AB-join itself
  // must be EXACTLY reproducible at any thread count.
  ThreadCountGuard guard;
  const Series query = RandomWalk(1400, 55);
  const Series reference = RandomWalk(1700, 56);
  SetParallelThreads(1);
  const Result<MatrixProfile> anchor = ComputeAbJoin(query, reference, 32);
  ASSERT_TRUE(anchor.ok());
  for (const std::size_t threads : ThreadCountsToTest()) {
    SetParallelThreads(threads);
    const Result<MatrixProfile> join = ComputeAbJoin(query, reference, 32);
    ASSERT_TRUE(join.ok());
    for (std::size_t i = 0; i < anchor->size(); ++i) {
      EXPECT_EQ(join->distances[i], anchor->distances[i])
          << "i=" << i << " threads=" << threads;
      EXPECT_EQ(join->indices[i], anchor->indices[i])
          << "i=" << i << " threads=" << threads;
    }
  }
}

TEST(AbJoinMpxTest, SelfPairWithoutExclusionIsZero) {
  // AB-join of a series with itself has no exclusion zone: every
  // subsequence finds itself at distance exactly 0 (the seed term of
  // its own diagonal), index i.
  const Series x = RandomWalk(600, 57);
  const Result<MatrixProfile> join = ComputeAbJoin(x, x, 20);
  ASSERT_TRUE(join.ok());
  for (std::size_t i = 0; i < join->size(); ++i) {
    ASSERT_NEAR(join->distances[i], 0.0, 1e-6) << "i=" << i;
  }
}

TEST(LeftProfileMpxTest, EquivalenceOnEverySimulatorFamilyAtEveryThreadCount) {
  ThreadCountGuard guard;
  for (const testing::ProfileTestFamily& family :
       testing::SimulatorFamilies()) {
    const MatrixProfile oracle = LeftOracle(family.values, family.m);
    for (const std::size_t threads : ThreadCountsToTest()) {
      SetParallelThreads(threads);
      EXPECT_TRUE(
          ExpectLeftProfileEquivalence(family.values, family.m, oracle))
          << family.name << " threads=" << threads;
    }
  }
}

TEST(LeftProfileMpxTest, EquivalenceOnFlatRegions) {
  ThreadCountGuard guard;
  Series x = RandomWalk(1500, 61);
  for (std::size_t i = 200; i < 280; ++i) x[i] = 7.5;
  for (std::size_t i = 900; i < 1000; ++i) x[i] = 1.0e6;
  for (const std::size_t m : {16u, 17u}) {
    const MatrixProfile oracle = LeftOracle(x, m);
    for (const std::size_t threads : ThreadCountsToTest()) {
      SetParallelThreads(threads);
      EXPECT_TRUE(ExpectLeftProfileEquivalence(x, m, oracle))
          << "m=" << m << " threads=" << threads;
    }
  }
}

TEST(LeftProfileMpxTest, BitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  const Series x = RandomWalk(2500, 62);
  SetParallelThreads(1);
  const Result<MatrixProfile> anchor = ComputeLeftMatrixProfile(x, 32);
  ASSERT_TRUE(anchor.ok());
  for (const std::size_t threads : ThreadCountsToTest()) {
    SetParallelThreads(threads);
    const Result<MatrixProfile> left = ComputeLeftMatrixProfile(x, 32);
    ASSERT_TRUE(left.ok());
    for (std::size_t i = 0; i < anchor->size(); ++i) {
      EXPECT_EQ(left->distances[i], anchor->distances[i])
          << "i=" << i << " threads=" << threads;
      EXPECT_EQ(left->indices[i], anchor->indices[i])
          << "i=" << i << " threads=" << threads;
    }
  }
}

TEST(LeftProfileMpxTest, CausalityAndDominanceOverSelfJoin) {
  // Structural invariants of ANY correct left profile: entries before
  // the first admissible diagonal are +inf/kNoNeighbor, every neighbor
  // points strictly into the past beyond the exclusion zone, and each
  // left distance dominates the (two-sided) self-join distance.
  const Series x = RandomWalk(1200, 63);
  const std::size_t m = 24;
  const std::size_t exclusion = m / 2;
  const Result<MatrixProfile> left = ComputeLeftMatrixProfile(x, m);
  const Result<MatrixProfile> self = ComputeMatrixProfile(x, m);
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(self.ok());
  for (std::size_t i = 0; i < left->size(); ++i) {
    if (i <= exclusion) {
      EXPECT_TRUE(std::isinf(left->distances[i])) << "i=" << i;
      EXPECT_EQ(left->indices[i], kNoNeighbor) << "i=" << i;
      continue;
    }
    ASSERT_NE(left->indices[i], kNoNeighbor) << "i=" << i;
    EXPECT_LE(left->indices[i] + exclusion + 1, i) << "i=" << i;
    EXPECT_GE(left->distances[i], self->distances[i] - 1e-9) << "i=" << i;
  }
}

TEST(LeftProfileMpxTest, ExclusionCoveringEverythingYieldsAllInf) {
  // An exclusion wide enough that no entry has an admissible past
  // neighbor is NOT an error: the result is simply the all-inf profile.
  const Series x = RandomWalk(200, 64);
  const std::size_t m = 16;
  const Result<MatrixProfile> left =
      ComputeLeftMatrixProfile(x, m, /*exclusion=*/10000);
  ASSERT_TRUE(left.ok());
  for (std::size_t i = 0; i < left->size(); ++i) {
    EXPECT_TRUE(std::isinf(left->distances[i])) << "i=" << i;
    EXPECT_EQ(left->indices[i], kNoNeighbor) << "i=" << i;
  }
}

TEST(LeftProfileMpxTest, RejectsDegenerateInputs) {
  EXPECT_FALSE(ComputeLeftMatrixProfile({1, 2, 3}, 1).ok());
  EXPECT_FALSE(ComputeLeftMatrixProfile({1, 2}, 3).ok());
}

}  // namespace
}  // namespace tsad
