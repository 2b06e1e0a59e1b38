// Cross-protocol properties of the scoring modules: invariants that
// must hold for ANY detector output, exercised over randomized
// fixtures (TEST_P over seeds).

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "scoring/auc.h"
#include "scoring/confusion.h"
#include "scoring/nab.h"
#include "scoring/point_adjust.h"
#include "scoring/range_pr.h"
#include "scoring/ucr_score.h"
#include "confusion_oracle.h"

namespace tsad {
namespace {

using testing::ComputeConfusion;

struct Fixture {
  std::vector<uint8_t> truth;
  std::vector<double> scores;
};

Fixture RandomFixture(uint64_t seed) {
  constexpr std::size_t n = 600;
  Rng rng(seed);
  Fixture f;
  f.truth.resize(n);
  f.scores.resize(n);
  // Regions rather than iid labels, to look like real TSAD truth.
  std::size_t i = 0;
  while (i < n) {
    const bool anomalous = rng.Bernoulli(0.1);
    const std::size_t len =
        static_cast<std::size_t>(rng.UniformInt(3, anomalous ? 20 : 80));
    for (std::size_t j = i; j < std::min(n, i + len); ++j) {
      f.truth[j] = anomalous ? 1 : 0;
    }
    i += len;
  }
  // Scores loosely correlated with truth so metrics aren't degenerate.
  for (std::size_t j = 0; j < n; ++j) {
    f.scores[j] = (f.truth[j] ? 0.8 : 0.2) + rng.Gaussian(0.0, 0.4);
  }
  // Guarantee both classes.
  f.truth[0] = 0;
  f.truth[n / 2] = 1;
  return f;
}

class ScoringProperties : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScoringProperties, PointAdjustNeverLowersF1) {
  const Fixture f = RandomFixture(GetParam());
  Result<BestF1> plain = BestF1OverThresholds(f.truth, f.scores);
  Result<BestF1> adjusted = BestPointAdjustedF1(f.truth, f.scores);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(adjusted.ok());
  EXPECT_GE(adjusted->f1 + 1e-12, plain->f1);
}

TEST_P(ScoringProperties, BestF1IsABestOverExplicitThresholds) {
  // Sweeping thresholds by hand can never beat BestF1OverThresholds.
  const Fixture f = RandomFixture(GetParam() + 50);
  Result<BestF1> best = BestF1OverThresholds(f.truth, f.scores);
  ASSERT_TRUE(best.ok());
  for (double t : {0.0, 0.3, 0.5, 0.7, 0.9, 1.2}) {
    std::vector<uint8_t> pred(f.scores.size());
    for (std::size_t i = 0; i < pred.size(); ++i) {
      pred[i] = f.scores[i] >= t ? 1 : 0;
    }
    Result<Confusion> c = ComputeConfusion(f.truth, pred);
    ASSERT_TRUE(c.ok());
    EXPECT_LE(c->f1(), best->f1 + 1e-12) << "t=" << t;
  }
}

TEST_P(ScoringProperties, RocAucIsComplementedByScoreNegation) {
  const Fixture f = RandomFixture(GetParam() + 100);
  Result<double> auc = RocAuc(f.truth, f.scores);
  std::vector<double> negated = f.scores;
  for (double& s : negated) s = -s;
  Result<double> flipped = RocAuc(f.truth, negated);
  ASSERT_TRUE(auc.ok());
  ASSERT_TRUE(flipped.ok());
  EXPECT_NEAR(*auc + *flipped, 1.0, 1e-9);
}

TEST_P(ScoringProperties, RocAucInvariantToMonotoneTransform) {
  const Fixture f = RandomFixture(GetParam() + 150);
  Result<double> auc = RocAuc(f.truth, f.scores);
  std::vector<double> warped = f.scores;
  for (double& s : warped) s = std::exp(0.5 * s) + 3.0;  // monotone
  Result<double> warped_auc = RocAuc(f.truth, warped);
  ASSERT_TRUE(auc.ok());
  ASSERT_TRUE(warped_auc.ok());
  EXPECT_NEAR(*auc, *warped_auc, 1e-9);
}

TEST_P(ScoringProperties, RangeRecallMonotoneInCoverage) {
  // Adding a predicted region can only help recall.
  const Fixture f = RandomFixture(GetParam() + 200);
  const auto real = RegionsFromBinary(f.truth);
  if (real.empty()) GTEST_SKIP();
  std::vector<AnomalyRegion> some = {real.front()};
  std::vector<AnomalyRegion> more = some;
  if (real.size() > 1) more.push_back(real.back());
  const double recall_some = ComputeRangePr(real, some).recall;
  const double recall_more = ComputeRangePr(real, more).recall;
  EXPECT_GE(recall_more + 1e-12, recall_some);
}

TEST_P(ScoringProperties, NabMoreMissedWindowsScoresLower) {
  const Fixture f = RandomFixture(GetParam() + 300);
  const auto real = RegionsFromBinary(f.truth);
  if (real.size() < 2) GTEST_SKIP();
  std::vector<std::size_t> all_hits, one_hit;
  for (const AnomalyRegion& r : real) all_hits.push_back(r.begin);
  one_hit.push_back(real.front().begin);
  Result<NabScore> all_score =
      ComputeNabScore(real, all_hits, f.truth.size());
  Result<NabScore> one_score =
      ComputeNabScore(real, one_hit, f.truth.size());
  ASSERT_TRUE(all_score.ok());
  ASSERT_TRUE(one_score.ok());
  if (all_score->total_windows == real.size()) {
    // No windows merged: the extra detections hit distinct windows, so
    // missing them must strictly cost score.
    EXPECT_GT(all_score->normalized, one_score->normalized);
  } else {
    // Overlapping windows merged: a single detection may legitimately
    // cover several anomalies, so the gap can close — but never invert.
    EXPECT_GE(all_score->normalized, one_score->normalized);
  }
}

TEST_P(ScoringProperties, UcrSlopMonotone) {
  // The slop grows with the region (max(100, length)), so a prediction
  // correct for a region stays correct for every longer region that
  // contains it.
  Rng rng(GetParam() + 400);
  const auto draw = [&rng](std::int64_t lo, std::int64_t hi) {
    return static_cast<std::size_t>(rng.UniformInt(lo, hi));
  };
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t begin = draw(1000, 3000);
    const AnomalyRegion region{begin, begin + draw(1, 400)};
    const AnomalyRegion wider{region.begin - draw(0, 300),
                              region.end + draw(0, 300)};
    const std::size_t predicted = draw(0, 4000);
    if (UcrCorrect(region, predicted)) {
      EXPECT_TRUE(UcrCorrect(wider, predicted))
          << "[" << region.begin << ", " << region.end << ") within ["
          << wider.begin << ", " << wider.end << ") at " << predicted;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScoringProperties,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace tsad
