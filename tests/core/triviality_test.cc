#include "core/triviality.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datasets/generators.h"
#include "datasets/numenta.h"
#include "datasets/yahoo.h"
#include "triviality_oracle.h"

namespace tsad {
namespace {

using testing::FindOneLinerDirect;
using testing::FlagsSolve;
using testing::SolveWithFormDirect;

LabeledSeries SpikeSeries(uint64_t seed, double spike) {
  Rng rng(seed);
  Series x = GaussianNoise(800, 1.0, rng);
  const AnomalyRegion r = InjectSpike(x, 500, spike);
  return LabeledSeries("spike", std::move(x), {r});
}

TEST(FlagsSolveTest, ExactHitSolves) {
  LabeledSeries s("t", Series(100, 0.0), {{50, 52}});
  std::vector<uint8_t> flags(100, 0);
  flags[51] = 1;
  EXPECT_TRUE(FlagsSolve(s, flags));
}

TEST(FlagsSolveTest, SlopAllowsNearMisses) {
  LabeledSeries s("t", Series(100, 0.0), {{50, 52}});
  std::vector<uint8_t> flags(100, 0);
  flags[54] = 1;  // 2 past the region end
  SolveCriteria criteria;
  criteria.slop = 3;
  EXPECT_TRUE(FlagsSolve(s, flags, criteria));
  criteria.slop = 1;
  EXPECT_FALSE(FlagsSolve(s, flags, criteria));
}

TEST(FlagsSolveTest, StrayFalsePositiveFails) {
  LabeledSeries s("t", Series(100, 0.0), {{50, 52}});
  std::vector<uint8_t> flags(100, 0);
  flags[51] = 1;
  flags[10] = 1;  // far from any region
  EXPECT_FALSE(FlagsSolve(s, flags));
}

TEST(FlagsSolveTest, MissedRegionFails) {
  LabeledSeries s("t", Series(100, 0.0), {{20, 22}, {60, 62}});
  std::vector<uint8_t> flags(100, 0);
  flags[21] = 1;  // only the first region
  EXPECT_FALSE(FlagsSolve(s, flags));
}

TEST(FlagsSolveTest, NoAnomaliesNeverSolves) {
  LabeledSeries s("t", Series(100, 0.0), {});
  EXPECT_FALSE(FlagsSolve(s, std::vector<uint8_t>(100, 0)));
}

TEST(FlagsSolveTest, WrongLengthFails) {
  LabeledSeries s("t", Series(100, 0.0), {{50, 52}});
  EXPECT_FALSE(FlagsSolve(s, std::vector<uint8_t>(99, 0)));
}

TEST(SolveWithFormTest, Eq3SolvesAClearSpike) {
  const LabeledSeries s = SpikeSeries(1, 20.0);
  const TrivialitySolution sol = SolveWithForm(s, OneLinerForm::kEq3);
  ASSERT_TRUE(sol.solved);
  EXPECT_EQ(sol.params.form(), OneLinerForm::kEq3);
  // The found parameters actually solve the series.
  EXPECT_TRUE(FlagsSolve(s, EvaluateOneLiner(s.values(), sol.params)));
}

TEST(SolveWithFormTest, Eq3CannotSolveAHiddenAnomaly) {
  // Anomaly is a 1-sigma nudge: indistinguishable from noise.
  const LabeledSeries s = SpikeSeries(2, 1.0);
  EXPECT_FALSE(SolveWithForm(s, OneLinerForm::kEq3).solved);
}

TEST(SolveWithFormTest, Eq5RequiresPositiveDirection) {
  // A negative spike's initial jump is negative; its recovery jump is
  // positive and adjacent — still solvable by (5) thanks to slop... but
  // an upward spike must definitely solve.
  const LabeledSeries up = SpikeSeries(3, 20.0);
  EXPECT_TRUE(SolveWithForm(up, OneLinerForm::kEq5).solved);
}

TEST(FindOneLinerTest, PrefersSimplerFormsFirst) {
  const LabeledSeries s = SpikeSeries(4, 25.0);
  const TrivialitySolution sol = FindOneLiner(s);
  ASSERT_TRUE(sol.solved);
  // Both (3) and (4) can solve; the engine must report (3).
  EXPECT_EQ(sol.params.form(), OneLinerForm::kEq3);
}

TEST(FindOneLinerTest, ReportsFailureOnNoise) {
  Rng rng(5);
  Series x = GaussianNoise(800, 1.0, rng);
  LabeledSeries s("hidden", std::move(x), {{400, 401}});
  EXPECT_FALSE(FindOneLiner(s).solved);
}

TEST(FindOneLinerTest, FoundParamsAlwaysVerify) {
  // Property: whenever the search claims success, evaluating the
  // returned one-liner must pass FlagsSolve.
  for (uint64_t seed = 10; seed < 20; ++seed) {
    const LabeledSeries s = SpikeSeries(seed, 15.0);
    const TrivialitySolution sol = FindOneLiner(s);
    if (sol.solved) {
      EXPECT_TRUE(FlagsSolve(s, EvaluateOneLiner(s.values(), sol.params)))
          << "seed=" << seed << " " << sol.params.ToMatlab();
    }
  }
}

TEST(AnalyzeTrivialityTest, AggregatesPerDataset) {
  BenchmarkDataset easy;
  easy.name = "easy";
  for (uint64_t i = 0; i < 5; ++i) {
    easy.series.push_back(SpikeSeries(100 + i, 20.0));
  }
  BenchmarkDataset hard;
  hard.name = "hard";
  for (uint64_t i = 0; i < 5; ++i) {
    hard.series.push_back(SpikeSeries(200 + i, 0.5));
  }
  const TrivialityReport report = AnalyzeTriviality({&easy, &hard});
  ASSERT_EQ(report.datasets.size(), 2u);
  EXPECT_EQ(report.datasets[0].solved, 5u);
  EXPECT_EQ(report.datasets[1].solved, 0u);
  EXPECT_EQ(report.total, 10u);
  EXPECT_EQ(report.solved, 5u);
  EXPECT_DOUBLE_EQ(report.solved_percent(), 50.0);
  EXPECT_EQ(report.series.size(), 10u);
}

// Regression: when the labeled regions plus slop cover EVERY index,
// nothing is forbidden, and the exact b sweep used to leave its
// forbidden-maximum at -inf — any parameter setting then compared
// greater and the series was reported "solved" with infinite headroom.
// A one-liner that is allowed to flag everywhere carries no
// information; such series must be reported unsolvable.
TEST(FindOneLinerTest, SlopCoveringEveryIndexIsNotSolvable) {
  Rng rng(6);
  Series x = GaussianNoise(10, 1.0, rng);
  x[5] += 30.0;  // an obvious spike: the OLD code definitely "solved" it
  LabeledSeries s("tiny", std::move(x), {{3, 7}});
  SolveCriteria criteria;
  criteria.slop = 3;  // region [3,7) +/- 3 covers indices 0..9 = all
  EXPECT_FALSE(FindOneLiner(s, OneLinerSearchSpace{}, criteria).solved);
  for (OneLinerForm form : {OneLinerForm::kEq3, OneLinerForm::kEq4,
                            OneLinerForm::kEq5, OneLinerForm::kEq6}) {
    EXPECT_FALSE(
        SolveWithForm(s, form, OneLinerSearchSpace{}, criteria).solved)
        << OneLinerFormName(form);
  }
}

// The same labels on a longer series DO leave forbidden indices, so the
// spike solves normally — the degenerate-coverage rejection must not
// leak into the ordinary case.
TEST(FindOneLinerTest, PartialCoverageStillSolves) {
  Rng rng(7);
  Series x = GaussianNoise(200, 1.0, rng);
  x[100] += 30.0;
  LabeledSeries s("normal", std::move(x), {{98, 103}});
  EXPECT_TRUE(FindOneLiner(s).solved);
}

// Property sweep: spikes of increasing size flip from (mostly)
// unsolvable to (always) solvable. Tiny spikes can occasionally be
// "solved" by a lucky parameter setting — the brute force is allowed
// magic numbers, exactly as the paper's is — so below the noise floor
// we assert on the solve *rate* across seeds, and with a headroom
// requirement flukes must vanish entirely.
class SpikeSizeSweep : public ::testing::TestWithParam<double> {};

TEST_P(SpikeSizeSweep, SolveRateTracksSpikeSize) {
  const double magnitude = GetParam();
  std::size_t solved_any = 0, solved_decisively = 0;
  SolveCriteria decisive;
  decisive.min_headroom = 0.5;
  for (uint64_t seed = 40; seed < 50; ++seed) {
    const LabeledSeries s = SpikeSeries(seed, magnitude);
    if (FindOneLiner(s).solved) ++solved_any;
    if (FindOneLiner(s, OneLinerSearchSpace{}, decisive).solved) {
      ++solved_decisively;
    }
  }
  if (magnitude >= 12.0) {
    EXPECT_EQ(solved_any, 10u) << "magnitude=" << magnitude;
    EXPECT_GE(solved_decisively, 8u) << "magnitude=" << magnitude;
  }
  if (magnitude <= 1.0) {
    EXPECT_LE(solved_any, 4u) << "magnitude=" << magnitude;
    EXPECT_EQ(solved_decisively, 0u) << "magnitude=" << magnitude;
  }
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, SpikeSizeSweep,
                         ::testing::Values(0.5, 1.0, 12.0, 16.0, 24.0, 48.0));

// ---------------------------------------------------------------------------
// Memoized sweep vs. the frozen direct implementation: the cached grid
// search must return IDENTICAL solutions — same solved flag, same
// parameters, and bit-equal b and headroom (EXPECT_EQ on the doubles,
// no tolerance) — on realistic archive series.

void ExpectIdenticalSolutions(const TrivialitySolution& memoized,
                              const TrivialitySolution& direct,
                              const std::string& label) {
  ASSERT_EQ(memoized.solved, direct.solved) << label;
  if (!direct.solved) return;
  EXPECT_EQ(memoized.params.use_abs, direct.params.use_abs) << label;
  EXPECT_EQ(memoized.params.use_movmean, direct.params.use_movmean) << label;
  EXPECT_EQ(memoized.params.k, direct.params.k) << label;
  EXPECT_EQ(memoized.params.c, direct.params.c) << label;
  EXPECT_EQ(memoized.params.b, direct.params.b) << label;
  EXPECT_EQ(memoized.headroom, direct.headroom) << label;
}

TEST(MemoizedSweepTest, MatchesDirectOnYahooSubset) {
  YahooConfig config;
  config.seed = 77;
  config.a1_count = 6;
  config.a2_count = 6;
  config.a3_count = 6;
  config.a4_count = 6;
  config.a1_length = 500;
  config.synthetic_length = 500;
  const YahooArchive archive = GenerateYahooArchive(config);
  for (const BenchmarkDataset* dataset : archive.all()) {
    for (const LabeledSeries& s : dataset->series) {
      ExpectIdenticalSolutions(FindOneLiner(s), FindOneLinerDirect(s),
                               dataset->name + "/" + s.name());
    }
  }
}

TEST(MemoizedSweepTest, MatchesDirectOnNumentaDataset) {
  NumentaConfig config;
  config.seed = 78;
  const BenchmarkDataset dataset = GenerateNumentaDataset(config);
  for (const LabeledSeries& s : dataset.series) {
    ExpectIdenticalSolutions(FindOneLiner(s), FindOneLinerDirect(s),
                             s.name());
  }
}

TEST(MemoizedSweepTest, SolveWithFormMatchesDirectPerForm) {
  SolveCriteria strict;
  strict.min_headroom = 0.3;
  for (uint64_t seed = 60; seed < 66; ++seed) {
    for (const double magnitude : {0.8, 6.0, 20.0}) {
      const LabeledSeries s = SpikeSeries(seed, magnitude);
      for (OneLinerForm form : {OneLinerForm::kEq3, OneLinerForm::kEq4,
                                OneLinerForm::kEq5, OneLinerForm::kEq6}) {
        const std::string label = "seed=" + std::to_string(seed) +
                                  " mag=" + std::to_string(magnitude);
        ExpectIdenticalSolutions(
            SolveWithForm(s, form), SolveWithFormDirect(s, form), label);
        ExpectIdenticalSolutions(
            SolveWithForm(s, form, OneLinerSearchSpace{}, strict),
            SolveWithFormDirect(s, form, OneLinerSearchSpace{}, strict),
            label + " strict");
      }
    }
  }
}

// The degenerate cases the direct sweep handles (full slop coverage, no
// anomalies, too-short series) must fall out of the precomputed context
// the same way.
TEST(MemoizedSweepTest, DegenerateCasesMatchDirect) {
  Rng rng(79);
  Series covered = GaussianNoise(10, 1.0, rng);
  covered[5] += 30.0;
  const LabeledSeries full_coverage("tiny", std::move(covered), {{3, 7}});
  ExpectIdenticalSolutions(FindOneLiner(full_coverage),
                           FindOneLinerDirect(full_coverage), "full-coverage");

  const LabeledSeries unlabeled("none", GaussianNoise(200, 1.0, rng), {});
  ExpectIdenticalSolutions(FindOneLiner(unlabeled),
                           FindOneLinerDirect(unlabeled), "no-anomalies");

  const LabeledSeries tiny("short", Series{1.0, 2.0}, {{0, 1}});
  ExpectIdenticalSolutions(FindOneLiner(tiny), FindOneLinerDirect(tiny),
                           "too-short");
}

}  // namespace
}  // namespace tsad
