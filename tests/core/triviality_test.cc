#include "core/triviality.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

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

// Scaling a series by a power of two is exact in every step of the
// search (diffs, window moments, margins, the gap and the margin
// range), so the solution must not depend on the data's units: same
// form, k, c and headroom, with b scaled by the same power.
TEST(FindOneLinerTest, PowerOfTwoScalingKeepsTheSolution) {
  const YahooArchive archive = GenerateYahooArchive();
  for (const BenchmarkDataset* dataset : archive.all()) {
    for (const LabeledSeries& s : dataset->series) {
      const TrivialitySolution base = FindOneLiner(s);
      for (const int exponent : {-60, -40, 40}) {
        Series scaled = s.values();
        for (double& v : scaled) v = std::ldexp(v, exponent);
        const TrivialitySolution sol = FindOneLiner(LabeledSeries(
            s.name(), std::move(scaled), s.anomalies(), s.train_length()));
        const std::string label =
            s.name() + " x 2^" + std::to_string(exponent);
        ASSERT_EQ(sol.solved, base.solved) << label;
        if (!base.solved) continue;
        EXPECT_EQ(sol.params.form(), base.params.form()) << label;
        EXPECT_EQ(sol.params.k, base.params.k) << label;
        EXPECT_EQ(sol.params.c, base.params.c) << label;
        EXPECT_EQ(sol.headroom, base.headroom) << label;
        EXPECT_EQ(sol.params.b, std::ldexp(base.params.b, exponent)) << label;
      }
    }
  }
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
// parameters, and the same bits of b and headroom (no tolerance; a NaN
// headroom must be the same NaN) — on realistic archive series.

void ExpectIdenticalSolutions(const TrivialitySolution& memoized,
                              const TrivialitySolution& direct,
                              const std::string& label) {
  ASSERT_EQ(memoized.solved, direct.solved) << label;
  if (!direct.solved) return;
  EXPECT_EQ(memoized.params.use_abs, direct.params.use_abs) << label;
  EXPECT_EQ(memoized.params.use_movmean, direct.params.use_movmean) << label;
  EXPECT_EQ(memoized.params.k, direct.params.k) << label;
  EXPECT_EQ(memoized.params.c, direct.params.c) << label;
  EXPECT_EQ(std::bit_cast<uint64_t>(memoized.params.b),
            std::bit_cast<uint64_t>(direct.params.b))
      << label << " b " << memoized.params.b << " vs " << direct.params.b;
  EXPECT_EQ(std::bit_cast<uint64_t>(memoized.headroom),
            std::bit_cast<uint64_t>(direct.headroom))
      << label << " headroom " << memoized.headroom << " vs "
      << direct.headroom;
}

// Every form through SolveWithForm, and the whole search, against the
// direct implementation.
void ExpectSearchMatchesDirect(const LabeledSeries& s,
                               const std::string& label) {
  for (OneLinerForm form : {OneLinerForm::kEq3, OneLinerForm::kEq4,
                            OneLinerForm::kEq5, OneLinerForm::kEq6}) {
    ExpectIdenticalSolutions(SolveWithForm(s, form),
                             SolveWithFormDirect(s, form),
                             label + " " + std::string(OneLinerFormName(form)));
  }
  ExpectIdenticalSolutions(FindOneLiner(s), FindOneLinerDirect(s), label);
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

// The full default archive: 367 series of 1,420 or 1,680 points, so
// the largest window (k = 151) and long forbidden runs are exercised.
TEST(MemoizedSweepTest, MatchesDirectOnDefaultYahooArchive) {
  const YahooArchive archive = GenerateYahooArchive();
  std::size_t series = 0;
  for (const BenchmarkDataset* dataset : archive.all()) {
    for (const LabeledSeries& s : dataset->series) {
      ExpectIdenticalSolutions(FindOneLiner(s), FindOneLinerDirect(s),
                               dataset->name + "/" + s.name());
      ++series;
    }
  }
  EXPECT_EQ(series, 367u);
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
// the same way, and so must the inputs at the edges of the margin
// arithmetic and of the index bounds (EdgeCase).
enum class EdgeKind {
  kConstant,            // every margin equal: nothing separates
  kHalfZero,            // a flat half next to noise
  kNaN,                 // one NaN value
  kPosInf,              // one +inf value
  kInfPair,             // a -inf and a +inf value
  kHuge,                // x 1e300: the window sums of squares overflow
  kSubnormal,           // x 1e-310: subnormal values
  kRegionAtStart,       // a region at index 0
  kRegionAtEnd,         // a region at the last index
  kOverlappingRegions,  // two regions that overlap once slop is added
  kShort,               // n = 3 to 7
};

LabeledSeries EdgeCase(EdgeKind kind, uint64_t seed) {
  Rng rng(seed);
  const std::size_t n =
      kind == EdgeKind::kShort ? 3 + static_cast<std::size_t>(seed % 5) : 100;
  Series x = GaussianNoise(n, 1.0, rng);
  const auto at = [&](std::size_t lo, std::size_t hi) {
    return static_cast<std::size_t>(rng.UniformInt(
        static_cast<int64_t>(lo), static_cast<int64_t>(hi)));
  };
  const double spike = rng.Uniform(2.0, 12.0);
  std::vector<AnomalyRegion> regions;
  const double inf = std::numeric_limits<double>::infinity();
  switch (kind) {
    case EdgeKind::kConstant:
      x.assign(n, 4.25);
      regions.push_back(InjectSpike(x, at(20, n - 21), 0.0));
      break;
    case EdgeKind::kHalfZero:
      for (std::size_t i = 0; i < n / 2; ++i) x[i] = 0.0;
      regions.push_back(InjectSpike(x, at(20, n - 21), spike));
      break;
    case EdgeKind::kNaN:
      regions.push_back(InjectSpike(x, at(20, n - 21), spike));
      x[at(0, n - 1)] = std::numeric_limits<double>::quiet_NaN();
      break;
    case EdgeKind::kPosInf:
      regions.push_back(InjectSpike(x, at(20, n - 21), spike));
      x[at(0, n - 1)] = inf;
      break;
    case EdgeKind::kInfPair:
      regions.push_back(InjectSpike(x, at(20, n - 21), spike));
      x[at(0, n - 1)] = -inf;
      x[at(0, n - 1)] = inf;
      break;
    case EdgeKind::kHuge:
    case EdgeKind::kSubnormal:
      regions.push_back(InjectSpike(x, at(20, n - 21), spike));
      for (double& v : x) v *= kind == EdgeKind::kHuge ? 1e300 : 1e-310;
      break;
    case EdgeKind::kRegionAtStart:
      regions.push_back(InjectSpike(x, 0, spike));
      break;
    case EdgeKind::kRegionAtEnd:
      regions.push_back(InjectSpike(x, n - 1, spike));
      break;
    case EdgeKind::kOverlappingRegions: {
      const std::size_t pos = at(20, n - 30);
      regions.push_back(InjectSpike(x, pos, spike));
      regions.push_back(InjectSpike(x, pos + at(2, 6), spike));
      break;
    }
    case EdgeKind::kShort:
      regions.push_back(InjectSpike(x, at(0, n - 1), spike));
      break;
  }
  return LabeledSeries("edge", std::move(x), std::move(regions));
}

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

  for (int kind = 0; kind <= static_cast<int>(EdgeKind::kShort); ++kind) {
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      ExpectSearchMatchesDirect(
          EdgeCase(static_cast<EdgeKind>(kind), seed),
          "kind=" + std::to_string(kind) + " seed=" + std::to_string(seed));
    }
  }
}

// Series several window blocks long (OneLinerMarginCache::kBlock diffs
// each; every EdgeCase above fits in one), with the inputs a block-wise
// window fill and the remembered rejecting points could get wrong.
enum class SeamKind {
  kNonFiniteBeforeSeam,  // NaN / +inf / -inf on the last diff of a block
  kNonFiniteAfterSeam,   // ... on the first diffs of the next block
  kRegionAcrossSeam,     // a region whose slop bounds end or start at a seam
  kRegionInLastBlock,    // a region in the last, partial block
  kNaNAtRejecter,        // the point that rejects (3) and (5) has a NaN
                         // margin for every windowed candidate
  kStepAtLastRejecter,   // odd seeds: an unlabeled step rejects (3);
                         // even seeds: the next series labels that step
};

LabeledSeries SeamCase(SeamKind kind, uint64_t seed) {
  constexpr std::size_t kBlock = OneLinerMarginCache::kBlock;
  Rng rng(seed);
  // 700 to 1,000 points; at seeds 1 to 6 the last block of diffs is
  // partial, 9 to 108 entries.
  const std::size_t n = 700 + static_cast<std::size_t>(rng.UniformInt(0, 300));
  Series x = GaussianNoise(n, 1.0, rng);
  const std::size_t blocks = (n - 1 + kBlock - 1) / kBlock;
  // Diff index `seam` opens a block; series index t enters diffs t - 1
  // and t.
  const std::size_t seam =
      kBlock * static_cast<std::size_t>(
                   rng.UniformInt(1, static_cast<int64_t>(blocks) - 1));
  const double spike = rng.Uniform(6.0, 14.0);
  const double values[] = {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
  const double non_finite = values[seed % 3];
  std::vector<AnomalyRegion> regions;
  switch (kind) {
    case SeamKind::kNonFiniteBeforeSeam:
      regions.push_back(InjectSpike(x, seam > n / 2 ? 100 : n - 100, spike));
      x[seam - seed % 2] = non_finite;
      break;
    case SeamKind::kNonFiniteAfterSeam:
      regions.push_back(InjectSpike(x, seam > n / 2 ? 100 : n - 100, spike));
      x[seam + 1 + seed % 2] = non_finite;
      break;
    case SeamKind::kRegionAcrossSeam:
      // Bounds [pos - 3, pos + 4) read diffs [pos - 4, pos + 3): the
      // last diff of a block at pos = seam + 3, the first of the next
      // at pos = seam - 2.
      regions.push_back(InjectSpike(x, seam - 2 + seed % 6, spike));
      break;
    case SeamKind::kRegionInLastBlock: {
      const std::size_t last = (blocks - 1) * kBlock + 1;
      regions.push_back(InjectSpike(
          x,
          static_cast<std::size_t>(rng.UniformInt(
              static_cast<int64_t>(last), static_cast<int64_t>(n - 1))),
          spike));
      break;
    }
    case SeamKind::kNaNAtRejecter: {
      // The labeled spike comes first and a larger unlabeled one after
      // a NaN: (3) and (5) are rejected at the unlabeled spike, whose
      // windows, like every window after the NaN, read NaN.
      regions.push_back(InjectSpike(x, 100 + seed % 50, 15.0));
      const std::size_t nan_at = n / 2;
      x[nan_at] = std::numeric_limits<double>::quiet_NaN();
      x[nan_at + 10 + seed % 20] += 40.0;
      break;
    }
    case SeamKind::kStepAtLastRejecter: {
      // Run in seed order, the even seed's series follows the odd one's
      // in the same search state, and its region holds the point that
      // rejected the odd series' candidates.
      const std::size_t step_at = 200 + 100 * ((seed - 1) / 2);
      if (seed % 2 == 1) {
        regions.push_back(InjectSpike(x, 600, 15.0));
        InjectLevelShift(x, step_at, 40.0, 1);
      } else {
        regions.push_back(InjectLevelShift(x, step_at, 40.0, 1));
      }
      break;
    }
  }
  return LabeledSeries("seam", std::move(x), std::move(regions));
}

// Every form and the whole search against the direct implementation,
// and the same series through AnalyzeTriviality, whose pool tasks reuse
// one search state across lengths and non-finite inputs.
TEST(MemoizedSweepTest, BlockSeamsAndRememberedPointsMatchDirect) {
  BenchmarkDataset dataset;
  dataset.name = "seams";
  std::vector<TrivialitySolution> direct;
  std::size_t solved_by_windows_past_a_nan = 0;
  for (int kind = 0; kind <= static_cast<int>(SeamKind::kStepAtLastRejecter);
       ++kind) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      const LabeledSeries s = SeamCase(static_cast<SeamKind>(kind), seed);
      const std::string label =
          "kind=" + std::to_string(kind) + " seed=" + std::to_string(seed);
      ExpectSearchMatchesDirect(s, label);
      direct.push_back(FindOneLinerDirect(s));
      if (static_cast<SeamKind>(kind) == SeamKind::kNaNAtRejecter &&
          direct.back().solved && direct.back().params.uses_window()) {
        ++solved_by_windows_past_a_nan;
      }
      dataset.series.push_back(s);
    }
  }
  // The NaN-margin rejecter case only tests something if a windowed
  // candidate gets past that point.
  EXPECT_GT(solved_by_windows_past_a_nan, 0u);
  const TrivialityReport report = AnalyzeTriviality({&dataset});
  ASSERT_EQ(report.series.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    ExpectIdenticalSolutions(report.series[i].solution, direct[i],
                             "AnalyzeTriviality series " + std::to_string(i));
  }
}

}  // namespace
}  // namespace tsad
