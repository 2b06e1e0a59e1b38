#include "detectors/seasonal_esd.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"
#include "core/leaderboard.h"
#include "datasets/generators.h"

namespace tsad {
namespace {

// The per-lag search that EstimatePeriod's filter and refine replaced:
// the exact ACF at every lag in [min_lag, max_lag], O(n) per lag. It is
// the oracle EstimatePeriod must match on every input.
std::size_t EstimatePeriodPerLag(const Series& x, std::size_t min_lag = 4,
                                 std::size_t max_lag = 0) {
  const std::size_t n = x.size();
  if (max_lag == 0) max_lag = n / 3;
  if (min_lag < 2) min_lag = 2;
  if (max_lag <= min_lag || n < 3 * min_lag) return 0;

  double best_acf = 0.25;  // require a clearly periodic signal
  std::size_t best_lag = 0;
  for (std::size_t lag = min_lag; lag <= max_lag; ++lag) {
    const double r = Autocorrelation(x, lag);
    if (r > best_acf) {
      best_acf = r;
      best_lag = lag;
    }
  }
  // Prefer the FUNDAMENTAL: if lag/2 scores nearly as well, halve.
  while (best_lag >= 2 * min_lag &&
         Autocorrelation(x, best_lag / 2) > 0.9 * best_acf) {
    best_lag /= 2;
  }
  return best_lag;
}

void ExpectMatchesOracle(const std::string& what, const Series& x,
                         std::size_t min_lag = 4, std::size_t max_lag = 0) {
  EXPECT_EQ(EstimatePeriod(x, min_lag, max_lag),
            EstimatePeriodPerLag(x, min_lag, max_lag))
      << what << " (n " << x.size() << ", lags " << min_lag << ".."
      << max_lag << ")";
}

Series Affine(const Series& x, double scale, double offset) {
  Series out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] * scale + offset;
  return out;
}

Series FirstBoardSeries(LeaderboardFamily family, uint64_t seed) {
  return BuildLeaderboardFamily(family, seed, 1).front().values();
}

Series SeasonalWithSpike(std::size_t n, std::size_t period,
                         std::size_t spike_at, double magnitude,
                         uint64_t seed) {
  Rng rng(seed);
  Series x = Mix({Sinusoid(n, static_cast<double>(period), 2.0, 0.3),
                  LinearTrend(n, 10.0, 0.002),
                  GaussianNoise(n, 0.1, rng)});
  InjectSpike(x, spike_at, magnitude);
  return x;
}

TEST(DecomposeSeasonalTest, RecoversTheSeasonalShape) {
  const std::size_t period = 48;
  Rng rng(1);
  const Series x = Mix({Sinusoid(2000, 48.0, 2.0, 0.0),
                        GaussianNoise(2000, 0.05, rng)});
  Result<SeasonalDecomposition> d = DecomposeSeasonal(x, period);
  ASSERT_TRUE(d.ok());
  // The seasonal component tracks the sinusoid away from the edges.
  double worst = 0.0;
  for (std::size_t i = 200; i < 1800; ++i) {
    const double expected =
        2.0 * std::sin(2.0 * 3.14159265 * static_cast<double>(i) / 48.0);
    worst = std::max(worst, std::fabs(d->seasonal[i] - expected));
  }
  EXPECT_LT(worst, 0.35);
  // Residuals are small noise.
  const Series mid(d->residual.begin() + 200, d->residual.begin() + 1800);
  EXPECT_LT(StdDev(mid), 0.15);
}

TEST(DecomposeSeasonalTest, RejectsBadPeriods) {
  const Series x(100, 1.0);
  EXPECT_FALSE(DecomposeSeasonal(x, 1).ok());
  EXPECT_FALSE(DecomposeSeasonal(x, 51).ok());
  // 2 * period wraps to 0 here; the check must not.
  EXPECT_FALSE(DecomposeSeasonal(x, std::size_t{1} << 63).ok());
  EXPECT_FALSE(
      DecomposeSeasonal(x, std::numeric_limits<std::size_t>::max()).ok());
}

TEST(EstimatePeriodTest, FindsPlantedPeriod) {
  Rng rng(2);
  const Series x = Mix({Sinusoid(3000, 60.0, 1.0, 0.0),
                        GaussianNoise(3000, 0.05, rng)});
  const std::size_t period = EstimatePeriod(x);
  EXPECT_NEAR(static_cast<double>(period), 60.0, 3.0);
}

TEST(EstimatePeriodTest, ReturnsZeroOnNoise) {
  Rng rng(3);
  const Series x = GaussianNoise(2000, 1.0, rng);
  EXPECT_EQ(EstimatePeriod(x), 0u);
}

TEST(EstimatePeriodTest, MatchesPerLagOracle) {
  const std::vector<LeaderboardFamily> families =
      *ParseLeaderboardFamilies("all");
  for (uint64_t seed : {1, 42}) {
    for (LeaderboardFamily family : families) {
      ExpectMatchesOracle(std::string(LeaderboardFamilyName(family)) +
                              " seed " + std::to_string(seed),
                          FirstBoardSeries(family, seed));
    }
  }

  // Shifted and scaled copies of two seasonal board series.
  const Series yahoo = FirstBoardSeries(LeaderboardFamily::kYahoo, 1);
  const Series physio = FirstBoardSeries(LeaderboardFamily::kPhysio, 1);
  EXPECT_EQ(EstimatePeriod(yahoo), 24u);
  EXPECT_EQ(EstimatePeriod(physio), 167u);
  for (const Series* x : {&yahoo, &physio}) {
    const std::string name = x == &yahoo ? "yahoo" : "physio";
    for (double offset : {1e3, 1e6, 1e8, 1e12}) {
      ExpectMatchesOracle(name + " + " + testing::PrintToString(offset),
                          Affine(*x, 1.0, offset));
    }
    for (double scale : {1e-150, 1e-10, 1e10, 1e150}) {
      ExpectMatchesOracle(name + " x " + testing::PrintToString(scale),
                          Affine(*x, scale, 0.0));
    }
  }

  // Degenerate values, on a short series because the oracle's
  // arithmetic on NaN, infinities and subnormals is slow: every ACF is
  // 0 or NaN, or (scaled by 1e-310) every value is subnormal.
  const Series sine = Sinusoid(400, 7.0, 1.0, 0.0);
  ExpectMatchesOracle("constant", Series(600, 3.5));
  Series holes = sine;
  holes[100] = std::numeric_limits<double>::quiet_NaN();
  ExpectMatchesOracle("NaN", holes);
  Series spikes = sine;
  spikes[100] = std::numeric_limits<double>::infinity();
  spikes[200] = -std::numeric_limits<double>::infinity();
  ExpectMatchesOracle("+-inf", spikes);
  ExpectMatchesOracle("subnormal", Affine(sine, 1e-310, 0.0));
  // Finite values whose centered copies overflow: the estimate is not
  // finite, so every lag is scanned exactly.
  Series huge(480);
  for (std::size_t i = 0; i < huge.size(); ++i) {
    huge[i] = i % 24 == 0 ? -1.7e308 : 1.7e308;
  }
  ExpectMatchesOracle("centered overflow", huge);

  // The shortest series either search accepts, and one point shorter.
  for (std::size_t min_lag : {2, 4, 7}) {
    for (std::size_t n : {3 * min_lag - 1, 3 * min_lag}) {
      ExpectMatchesOracle("short sine", Series(sine.begin(), sine.begin() + n),
                          min_lag, 2 * min_lag);
    }
  }

  // Explicit lag ranges, including max_lag at and beyond the length.
  for (const auto& [min_lag, max_lag] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {2, 10}, {4, 50}, {10, 30}, {20, 399}, {4, 400}, {4, 1000},
           {30, 20}}) {
    ExpectMatchesOracle("sine", sine, min_lag, max_lag);
  }

  Rng rng(11);
  ExpectMatchesOracle("white noise", GaussianNoise(3000, 1.0, rng));
  Series comb(2400, 0.0);
  for (std::size_t i = 0; i < comb.size(); i += 24) comb[i] = 1.0;
  ExpectMatchesOracle("comb", comb);
}

TEST(EstimatePeriodTest, HugeMaxLagIsClampedToTheSeries) {
  const Series x = Sinusoid(500, 25.0, 1.0, 0.0);
  EXPECT_EQ(EstimatePeriod(x, 4, std::numeric_limits<std::size_t>::max()),
            EstimatePeriod(x, 4, x.size() - 1));
  EXPECT_EQ(EstimatePeriod(x, 4, std::numeric_limits<std::size_t>::max()),
            25u);
  // min_lag this large wraps 3 * min_lag; the series is too short for it.
  EXPECT_EQ(EstimatePeriod(x, std::size_t{1} << 63), 0u);
}

TEST(SeasonalEsdTest, FindsSpikeOnSeasonalTrendedData) {
  const Series x = SeasonalWithSpike(3000, 48, 2100, 3.0, 4);
  SeasonalEsdDetector detector(48);
  Result<std::vector<double>> scores = detector.Score(x, 0);
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(PredictLocation(*scores, 100), 2100u);
  EXPECT_GT((*scores)[2100], 10.0);
}

TEST(SeasonalEsdTest, AutoPeriodWorks) {
  const Series x = SeasonalWithSpike(3000, 48, 1700, 3.0, 5);
  SeasonalEsdDetector detector;  // period = 0 -> estimate
  Result<std::vector<double>> scores = detector.Score(x, 0);
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(PredictLocation(*scores, 100), 1700u);
}

TEST(SeasonalEsdTest, SeasonalExtremesAreNotAnomalies) {
  // The whole point of deseasonalizing: the crest of every cycle must
  // NOT outscore the injected spike, even though it is the local max.
  const Series x = SeasonalWithSpike(3000, 48, 2100, 2.5, 6);
  SeasonalEsdDetector detector(48);
  Result<std::vector<double>> scores = detector.Score(x, 0);
  ASSERT_TRUE(scores.ok());
  double crest_score = 0.0;
  for (std::size_t i = 500; i < 600; ++i) {
    crest_score = std::max(crest_score, (*scores)[i]);
  }
  EXPECT_GT((*scores)[2100], 3.0 * crest_score);
}

TEST(SeasonalEsdTest, PeriodsBeyondHalfTheSeriesDetrendOnly) {
  const Series x = SeasonalWithSpike(600, 24, 300, 3.0, 7);
  Result<std::vector<double>> wrapped =
      SeasonalEsdDetector(std::size_t{1} << 63).Score(x, 0);
  Result<std::vector<double>> plain =
      SeasonalEsdDetector(std::size_t{1} << 62).Score(x, 0);
  ASSERT_TRUE(wrapped.ok());
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(wrapped->size(), plain->size());
  EXPECT_EQ(std::memcmp(wrapped->data(), plain->data(),
                        plain->size() * sizeof(double)),
            0);
}

TEST(SeasonalEsdTest, ShortSeriesScoresZero) {
  SeasonalEsdDetector detector(4);
  Result<std::vector<double>> scores = detector.Score(Series(8, 1.0), 0);
  ASSERT_TRUE(scores.ok());
  for (double s : *scores) EXPECT_DOUBLE_EQ(s, 0.0);
}

}  // namespace
}  // namespace tsad
