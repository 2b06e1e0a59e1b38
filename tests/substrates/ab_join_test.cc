#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/series.h"
#include "profile_equivalence.h"
#include "substrates/matrix_profile.h"

namespace tsad {
namespace {

TEST(AbJoinTest, MatchesNaiveReference) {
  Rng rng(1);
  Series query(180), reference(220);
  for (double& v : query) v = rng.Gaussian();
  for (double& v : reference) v = rng.Gaussian();
  const std::size_t m = 16;
  Result<MatrixProfile> join = ComputeAbJoin(query, reference, m);
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  const Result<MatrixProfile> naive =
      testing::ComputeAbJoinNaive(query, reference, m);
  ASSERT_TRUE(naive.ok());
  ASSERT_EQ(join->size(), naive->size());
  for (std::size_t i = 0; i < naive->size(); ++i) {
    EXPECT_NEAR(join->distances[i], naive->distances[i], 1e-6) << "i=" << i;
  }
}

TEST(AbJoinTest, SubsequencesPresentInReferenceScoreZero) {
  Rng rng(2);
  Series reference(400);
  for (double& v : reference) v = rng.Gaussian();
  // Query = a chunk of the reference: every subsequence has an exact
  // match, so every distance is ~0.
  const Series query(reference.begin() + 100, reference.begin() + 260);
  Result<MatrixProfile> join = ComputeAbJoin(query, reference, 24);
  ASSERT_TRUE(join.ok());
  for (std::size_t i = 0; i < join->size(); ++i) {
    EXPECT_NEAR(join->distances[i], 0.0, 1e-6);
    EXPECT_EQ(join->indices[i], 100 + i);  // and at the right offset
  }
}

TEST(AbJoinTest, NovelBehaviorScoresHigh) {
  Series reference(600), query(300);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    reference[i] = std::sin(0.2 * static_cast<double>(i));
  }
  for (std::size_t i = 0; i < query.size(); ++i) {
    query[i] = std::sin(0.2 * static_cast<double>(i));
  }
  // A shape the reference never exhibits.
  for (std::size_t i = 150; i < 170; ++i) query[i] = 3.0;
  Result<MatrixProfile> join = ComputeAbJoin(query, reference, 32);
  ASSERT_TRUE(join.ok());
  EXPECT_GT(join->distances[150], 10.0 * join->distances[10]);
}

TEST(AbJoinTest, RejectsDegenerateInputs) {
  EXPECT_FALSE(ComputeAbJoin({1, 2, 3}, {1, 2, 3}, 1).ok());
  EXPECT_FALSE(ComputeAbJoin({1, 2}, {1, 2, 3, 4}, 3).ok());
  EXPECT_FALSE(ComputeAbJoin({1, 2, 3, 4}, {1, 2}, 3).ok());
}

// Property: AB-join of a series with itself lower-bounds the self-join
// profile (no exclusion zone -> the self-match gives 0).
TEST(AbJoinTest, SelfJoinWithoutExclusionIsZero) {
  Rng rng(3);
  Series x(300);
  for (double& v : x) v = rng.Gaussian();
  Result<MatrixProfile> join = ComputeAbJoin(x, x, 20);
  ASSERT_TRUE(join.ok());
  for (std::size_t i = 0; i < join->size(); ++i) {
    EXPECT_NEAR(join->distances[i], 0.0, 1e-6);
  }
}

}  // namespace
}  // namespace tsad
