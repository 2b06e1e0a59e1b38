#include "robustness/deadline.h"

#include <chrono>

#include <gtest/gtest.h>

#include "tsad.h"

namespace tsad {
namespace {

using std::chrono::hours;
using std::chrono::nanoseconds;

TEST(DeadlineTest, NoScopeMeansNoDeadline) {
  EXPECT_FALSE(DeadlineActive());
  EXPECT_TRUE(CheckDeadline().ok());
  EXPECT_EQ(DeadlineRemaining(), nanoseconds::max());
}

TEST(DeadlineTest, GenerousBudgetPasses) {
  DeadlineScope scope(hours(1));
  EXPECT_TRUE(DeadlineActive());
  EXPECT_TRUE(CheckDeadline().ok());
  EXPECT_GT(DeadlineRemaining(), nanoseconds(0));
  EXPECT_LT(DeadlineRemaining(), nanoseconds::max());
}

TEST(DeadlineTest, HugeBudgetNeverExpires) {
  // now + nanoseconds::max() overflows the clock's range: the deadline
  // saturates at the last time point instead of wrapping into the past.
  DeadlineScope scope(nanoseconds::max());
  EXPECT_TRUE(DeadlineActive());
  EXPECT_TRUE(CheckDeadline().ok());
  EXPECT_EQ(DeadlineTimePoint(), std::chrono::steady_clock::time_point::max());
  EXPECT_GT(DeadlineRemaining(), hours(24 * 365 * 100));
}

TEST(DeadlineTest, ZeroBudgetExpiresImmediately) {
  DeadlineScope scope(nanoseconds(0));
  const Status s = CheckDeadline();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(DeadlineRemaining(), nanoseconds(0));
}

TEST(DeadlineTest, ScopeRestoresOnExit) {
  {
    DeadlineScope scope(nanoseconds(0));
    EXPECT_FALSE(CheckDeadline().ok());
  }
  EXPECT_FALSE(DeadlineActive());
  EXPECT_TRUE(CheckDeadline().ok());
}

TEST(DeadlineTest, InnerScopeOnlyTightens) {
  DeadlineScope outer(hours(1));
  {
    DeadlineScope inner(nanoseconds(0));
    EXPECT_EQ(CheckDeadline().code(), StatusCode::kDeadlineExceeded);
  }
  // Back under the outer scope: plenty of budget again.
  EXPECT_TRUE(DeadlineActive());
  EXPECT_TRUE(CheckDeadline().ok());

  {
    // An inner scope cannot extend past the enclosing deadline.
    DeadlineScope outer_expired(nanoseconds(0));
    DeadlineScope inner_generous(hours(2));
    EXPECT_EQ(CheckDeadline().code(), StatusCode::kDeadlineExceeded);
  }
}

// The STOMP matrix-profile loops poll CheckDeadline, so a discord run
// under an expired deadline unwinds with kDeadlineExceeded instead of
// completing.
TEST(DeadlineTest, MatrixProfileHonorsDeadline) {
  Rng rng(3);
  const Series x = GaussianNoise(2000, 1.0, rng);
  DiscordDetector detector(128);

  DeadlineScope scope(nanoseconds(0));
  const Result<std::vector<double>> scores = detector.Score(x, 0);
  ASSERT_FALSE(scores.ok());
  EXPECT_EQ(scores.status().code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace tsad
