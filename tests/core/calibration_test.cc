// Tests for the §3.2 difficulty calibration (MakeCalibratedUcrDataset)
// and the scaled injection parameter it relies on.

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/ucr_archive.h"
#include "datasets/generators.h"

namespace tsad {
namespace {

Series CleanBase(uint64_t seed) {
  constexpr std::size_t n = 6000;
  Rng rng(seed);
  return Mix({Sinusoid(n, 120.0, 1.0, 0.3), Sinusoid(n, 29.0, 0.2, 1.0),
              GaussianNoise(n, 0.03, rng)});
}

TEST(ScaledInjectionTest, ScaleMovesTheAnomalySize) {
  // Same RNG stream, different scales: identical position, different
  // magnitude.
  Rng rng_small(7), rng_big(7);
  Series base = CleanBase(1);
  Result<LabeledSeries> small = MakeUcrDataset(
      "s", base, 2000, UcrInjection::kSpike, rng_small, 0.1);
  Result<LabeledSeries> big = MakeUcrDataset(
      "b", base, 2000, UcrInjection::kSpike, rng_big, 2.0);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(big.ok());
  const AnomalyRegion rs = small->anomalies().front();
  const AnomalyRegion rb = big->anomalies().front();
  EXPECT_EQ(rs.begin, rb.begin);  // replayed stream -> same position
  const double ds = std::fabs(small->values()[rs.begin] - base[rs.begin]);
  const double db = std::fabs(big->values()[rb.begin] - base[rb.begin]);
  EXPECT_GT(db, 10.0 * ds);
}

TEST(ScaledInjectionTest, FreezeScaleChangesWidth) {
  Rng a(9), b(9);
  Series base = CleanBase(2);
  Result<LabeledSeries> narrow =
      MakeUcrDataset("n", base, 2000, UcrInjection::kFreeze, a, 0.3);
  Result<LabeledSeries> wide =
      MakeUcrDataset("w", base, 2000, UcrInjection::kFreeze, b, 2.0);
  ASSERT_TRUE(narrow.ok());
  ASSERT_TRUE(wide.ok());
  EXPECT_GT(wide->anomalies().front().length(),
            3 * narrow->anomalies().front().length());
}

TEST(CalibrationTest, ReachesModerateForSpikes) {
  const Series base = CleanBase(3);
  Result<LabeledSeries> made = MakeCalibratedUcrDataset(
      "calib_spike", base, 2000, UcrInjection::kSpike, /*seed=*/11,
      UcrDifficulty::kModerate);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  EXPECT_TRUE(ValidateUcrDataset(*made).ok());
  EXPECT_EQ(RateDifficulty(*made), UcrDifficulty::kModerate);
}

TEST(CalibrationTest, ReachesModerateForHumps) {
  const Series base = CleanBase(4);
  Result<LabeledSeries> made = MakeCalibratedUcrDataset(
      "calib_hump", base, 2000, UcrInjection::kSmoothHump, /*seed=*/13,
      UcrDifficulty::kModerate);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  EXPECT_EQ(RateDifficulty(*made), UcrDifficulty::kModerate);
}

TEST(CalibrationTest, CanTargetTrivial) {
  const Series base = CleanBase(5);
  Result<LabeledSeries> made = MakeCalibratedUcrDataset(
      "calib_easy", base, 2000, UcrInjection::kSpike, /*seed=*/17,
      UcrDifficulty::kTrivial);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  EXPECT_EQ(RateDifficulty(*made), UcrDifficulty::kTrivial);
}

TEST(CalibrationTest, PositionStableAcrossTheSearch) {
  // The calibrated dataset's anomaly sits where a fixed-seed stock
  // injection would have put it.
  const Series base = CleanBase(6);
  Rng rng(19);
  Result<LabeledSeries> stock =
      MakeUcrDataset("stock", base, 2000, UcrInjection::kSpike, rng, 1.0);
  Result<LabeledSeries> calibrated = MakeCalibratedUcrDataset(
      "calib", base, 2000, UcrInjection::kSpike, /*seed=*/19);
  ASSERT_TRUE(stock.ok());
  ASSERT_TRUE(calibrated.ok());
  EXPECT_EQ(stock->anomalies().front().begin,
            calibrated->anomalies().front().begin);
}

TEST(CalibrationTest, TooShortBasePropagatesError) {
  Result<LabeledSeries> made = MakeCalibratedUcrDataset(
      "tiny", Series(100, 0.0), 64, UcrInjection::kSpike, /*seed=*/1);
  EXPECT_FALSE(made.ok());
}

}  // namespace
}  // namespace tsad
