#include "detectors/oneliner.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datasets/generators.h"

namespace tsad {
namespace {

TEST(OneLinerFormTest, ClassificationMatchesPaperNumbering) {
  OneLinerParams p;
  p.use_abs = true;
  p.use_movmean = false;
  p.c = 0.0;
  EXPECT_EQ(p.form(), OneLinerForm::kEq3);
  p.use_movmean = true;
  EXPECT_EQ(p.form(), OneLinerForm::kEq4);
  p.use_abs = false;
  p.use_movmean = false;
  EXPECT_EQ(p.form(), OneLinerForm::kEq5);
  p.c = 2.0;
  EXPECT_EQ(p.form(), OneLinerForm::kEq6);
}

TEST(OneLinerFormTest, Names) {
  EXPECT_EQ(OneLinerFormName(OneLinerForm::kEq3), "(3)");
  EXPECT_EQ(OneLinerFormName(OneLinerForm::kEq6), "(6)");
}

TEST(ToMatlabTest, RendersReadableExpressions) {
  OneLinerParams p;
  p.use_abs = true;
  p.use_movmean = false;
  p.c = 0.0;
  p.b = 2.5;
  EXPECT_EQ(p.ToMatlab(), "abs(diff(TS)) > 2.5");

  p.use_movmean = true;
  p.k = 7;
  p.c = 3.0;
  p.b = 0.0;
  EXPECT_EQ(p.ToMatlab(),
            "abs(diff(TS)) > movmean(abs(diff(TS)),7) + "
            "3*movstd(abs(diff(TS)),7)");
}

TEST(EvaluateOneLinerTest, Eq3FlagsSpikes) {
  Series x(200, 10.0);
  x[120] = 25.0;  // spike: |diff| = 15 at indices 119 and 120
  OneLinerParams p;
  p.use_abs = true;
  p.use_movmean = false;
  p.c = 0.0;
  p.b = 5.0;
  const auto flags = EvaluateOneLiner(x, p);
  ASSERT_EQ(flags.size(), x.size());
  EXPECT_TRUE(flags[120]);  // the jump up, aligned to the spike point
  EXPECT_TRUE(flags[121]);  // the jump back down
  EXPECT_FALSE(flags[119]);
  EXPECT_FALSE(flags[0]);
  std::size_t total = 0;
  for (uint8_t f : flags) total += f;
  EXPECT_EQ(total, 2u);
}

TEST(EvaluateOneLinerTest, Eq5IsSignSensitive) {
  Series x(200, 10.0);
  x[60] = 25.0;   // up-spike: +15 then -15
  x[140] = -5.0;  // down-spike: -15 then +15
  OneLinerParams p;
  p.use_abs = false;
  p.use_movmean = false;
  p.c = 0.0;
  p.b = 5.0;
  const auto flags = EvaluateOneLiner(x, p);
  EXPECT_TRUE(flags[60]);    // positive jump into the up-spike
  EXPECT_FALSE(flags[61]);   // the recovery down-jump is negative
  EXPECT_FALSE(flags[140]);  // the drop is negative
  EXPECT_TRUE(flags[141]);   // the recovery up-jump fires
}

TEST(EvaluateOneLinerTest, ShortSeriesNeverFlags) {
  OneLinerParams p;
  const auto flags = EvaluateOneLiner({5.0}, p);
  ASSERT_EQ(flags.size(), 1u);
  EXPECT_FALSE(flags[0]);
}

TEST(OneLinerMarginTest, AlignsWithFlags) {
  Rng rng(1);
  Series x = GaussianNoise(500, 1.0, rng);
  x[250] += 20.0;
  OneLinerParams p;
  p.use_abs = true;
  p.use_movmean = true;
  p.k = 21;
  p.c = 3.0;
  p.b = 0.0;
  const auto flags = EvaluateOneLiner(x, p);
  const auto margin = OneLinerMargin(x, p);
  ASSERT_EQ(margin.size(), x.size());
  for (std::size_t i = 1; i < x.size(); ++i) {
    EXPECT_EQ(flags[i] != 0, margin[i] > 0.0) << "i=" << i;
  }
}

TEST(OneLinerMarginTest, Index0GetsFloorValue) {
  Series x = {0, 1, 0, 1, 0};
  OneLinerParams p;
  p.use_abs = false;
  p.use_movmean = false;
  p.c = 0.0;
  p.b = 0.0;
  const auto margin = OneLinerMargin(x, p);
  // Index 0 is padding: must be the minimum so it is never the argmax.
  for (std::size_t i = 1; i < margin.size(); ++i) {
    EXPECT_LE(margin[0], margin[i]);
  }
}

TEST(OneLinerDetectorTest, ImplementsDetectorInterface) {
  OneLinerParams p;
  p.use_abs = true;
  p.b = 1.0;
  OneLinerDetector detector(p);
  EXPECT_NE(detector.name().find("OneLiner"), std::string_view::npos);

  Series x(300, 5.0);
  x[200] = 50.0;
  Result<std::vector<double>> scores = detector.Score(x, 0);
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(PredictLocation(*scores, 0), 200u);
}

// Property: equation (1) with u=0, c=0 degenerates to equation (3) --
// the margin must be identical for any data.
class OneLinerDegeneracy : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OneLinerDegeneracy, FullFormDegeneratesToSimplified) {
  Rng rng(GetParam());
  const Series x = GaussianNoise(256, 2.0, rng);
  OneLinerParams full;
  full.use_abs = true;
  full.use_movmean = false;
  full.c = 0.0;
  full.k = 21;  // irrelevant when u=0, c=0
  full.b = 1.5;
  OneLinerParams simplified = full;
  simplified.k = 3;  // different k must not matter
  EXPECT_EQ(OneLinerMargin(x, full), OneLinerMargin(x, simplified));
  EXPECT_EQ(EvaluateOneLiner(x, full), EvaluateOneLiner(x, simplified));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OneLinerDegeneracy,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// OneLinerMarginCache: every entry of a memoized view must be
// BIT-IDENTICAL to the per-call OneLinerMargin one index later, for
// every parameter setting the triviality grid visits — EXPECT_EQ on
// each double, no tolerance.

void ExpectViewMatchesMargin(OneLinerMarginCache& cache, const Series& x,
                             const OneLinerParams& p) {
  const std::vector<double> direct = OneLinerMargin(x, p);
  const OneLinerMarginView view = cache.View(p);
  ASSERT_EQ(view.size, x.size() < 2 ? 0 : x.size() - 1) << p.ToMatlab();
  view.Fill(0, view.size);
  for (std::size_t j = 0; j < view.size; ++j) {
    EXPECT_EQ(view[j], direct[j + 1]) << p.ToMatlab() << " j=" << j;
  }
}

TEST(OneLinerMarginCacheTest, MarginsBitIdenticalAcrossTheSearchGrid) {
  Rng rng(8);
  Series x = GaussianNoise(700, 1.5, rng);
  x[350] += 25.0;
  OneLinerMarginCache cache(x);
  for (const bool use_abs : {true, false}) {
    for (const bool use_movmean : {false, true}) {
      for (const std::size_t k : {0u, 1u, 5u, 21u, 151u}) {
        for (const double c : {0.0, 0.5, 3.0}) {
          for (const double b : {0.0, 0.7}) {
            OneLinerParams p;
            p.use_abs = use_abs;
            p.use_movmean = use_movmean;
            p.k = k;
            p.c = c;
            p.b = b;
            ExpectViewMatchesMargin(cache, x, p);
          }
        }
      }
    }
  }
}

TEST(OneLinerMarginCacheTest, RepeatedWindowsHitTheMemo) {
  Rng rng(9);
  const Series x = GaussianNoise(400, 1.0, rng);  // 399 diffs: 4 blocks
  OneLinerMarginCache cache(x);
  OneLinerParams p;
  p.use_abs = true;
  p.use_movmean = true;
  p.k = 11;
  p.c = 2.0;
  OneLinerMarginView view = cache.View(p);
  view.Fill(0, view.size);  // computes movmean + movstd for k=11
  const auto after_first = cache.stats();
  EXPECT_EQ(after_first.block_misses, 8u);
  EXPECT_EQ(after_first.block_hits, 0u);
  p.c = 4.0;  // same k, different c: every block must be served cached
  view = cache.View(p);
  view.Fill(0, view.size);
  const auto after_second = cache.stats();
  EXPECT_EQ(after_second.block_misses, 8u);
  EXPECT_EQ(after_second.block_hits, 8u);
}

// Blocks filled last to first, and a cache reset onto a shorter series
// and back onto a longer one, must read the same bits as a view filled
// in order on a fresh cache: no block depends on its neighbours, and
// no entry survives from the previous series.
TEST(OneLinerMarginCacheTest, BlocksFilledInReverseMatchTheDirectMargin) {
  OneLinerMarginCache cache;
  for (const std::size_t n : {1000u, 700u, 1000u}) {
    Rng rng(10 + n);
    Series x = GaussianNoise(n, 1.5, rng);
    x[n / 2] += 25.0;
    cache.Reset(x);
    for (const bool use_abs : {true, false}) {
      for (const std::size_t k : {5u, 151u}) {
        for (const double c : {0.0, 3.0}) {
          OneLinerParams p;
          p.use_abs = use_abs;
          p.use_movmean = true;
          p.k = k;
          p.c = c;
          const std::vector<double> direct = OneLinerMargin(x, p);
          const OneLinerMarginView view = cache.View(p);
          ASSERT_EQ(view.size, n - 1);
          constexpr std::size_t kBlock = OneLinerMarginCache::kBlock;
          for (std::size_t lo = (view.size - 1) / kBlock * kBlock;;
               lo -= kBlock) {
            view.Fill(lo, std::min(view.size, lo + kBlock));
            if (lo == 0) break;
          }
          for (std::size_t j = 0; j < view.size; ++j) {
            EXPECT_EQ(view[j], direct[j + 1])
                << "n=" << n << " " << p.ToMatlab() << " j=" << j;
          }
        }
      }
    }
  }
}

TEST(OneLinerMarginCacheTest, ShortSeriesMatchesDirectPath) {
  for (const Series& x : {Series{}, Series{5.0}, Series{1.0, 4.0}}) {
    OneLinerMarginCache cache(x);
    OneLinerParams p;
    p.use_abs = true;
    p.use_movmean = true;
    p.c = 1.0;
    ExpectViewMatchesMargin(cache, x, p);
  }
}

}  // namespace
}  // namespace tsad
