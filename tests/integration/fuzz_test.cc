// Failure-injection / fuzz-flavored robustness tests: random archives,
// degenerate shapes and hostile inputs pushed through the analyzers and
// detectors. Nothing here checks clever semantics — only that every
// component either succeeds with finite outputs or fails with a clean
// Status, never crashing or emitting NaNs.

#include <cmath>

#include <gtest/gtest.h>

#include "../core/triviality_oracle.h"
#include "tsad.h"

namespace tsad {
namespace {

using testing::FlagsSolve;

void ExpectFiniteScores(const Result<std::vector<double>>& scores,
                        std::size_t expected_size, const char* what) {
  if (!scores.ok()) return;  // clean refusal is acceptable
  ASSERT_EQ(scores->size(), expected_size) << what;
  for (double s : *scores) {
    ASSERT_TRUE(std::isfinite(s)) << what;
  }
}

// Random labeled series with chaotic shapes: constant runs, huge
// spikes, plateaus, tiny lengths.
LabeledSeries RandomHostileSeries(uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = static_cast<std::size_t>(rng.UniformInt(8, 3000));
  Series x(n);
  double level = rng.Uniform(-1e3, 1e3);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.UniformInt(0, 5)) {
      case 0:
        level += rng.Gaussian(0.0, 10.0);
        break;
      case 1:
        level = rng.Uniform(-1e4, 1e4);  // violent jump
        break;
      default:
        break;  // hold (creates constant runs)
    }
    x[i] = level;
  }
  std::vector<AnomalyRegion> regions;
  const std::size_t num_regions =
      static_cast<std::size_t>(rng.UniformInt(0, 4));
  for (std::size_t r = 0; r < num_regions; ++r) {
    const std::size_t begin =
        static_cast<std::size_t>(rng.UniformInt(0, static_cast<int64_t>(n - 1)));
    const std::size_t len =
        static_cast<std::size_t>(rng.UniformInt(1, 50));
    regions.push_back({begin, std::min(n, begin + len)});
  }
  return LabeledSeries("fuzz" + std::to_string(seed), std::move(x), regions);
}

class HostileSeriesFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HostileSeriesFuzz, DetectorsNeverCrashOrEmitNaN) {
  const LabeledSeries s = RandomHostileSeries(GetParam());
  const std::size_t n = s.length();

  // sesd:p=2^63: twice that period wraps a size_t to 0.
  for (const char* spec :
       {"zscore:w=16", "cusum", "ewma", "pagehinkley", "maxdiff",
        "constantrun", "lastpoint", "sesd", "sesd:p=9223372036854775808",
        "sr", "oneliner:abs=1,b=1"}) {
    Result<std::unique_ptr<AnomalyDetector>> d = MakeDetector(spec);
    ASSERT_TRUE(d.ok()) << spec;
    ExpectFiniteScores((*d)->Score(s.values(), s.train_length()), n, spec);
  }
  // The subsequence detectors refuse short inputs cleanly.
  DiscordDetector discord(32);
  ExpectFiniteScores(discord.Score(s.values(), 0), n, "discord");
}

TEST_P(HostileSeriesFuzz, AnalyzersNeverCrash) {
  const LabeledSeries s = RandomHostileSeries(GetParam() + 1000);
  // Triviality: solved or not, never crashes; found params verify.
  const TrivialitySolution sol = FindOneLiner(s);
  if (sol.solved) {
    EXPECT_TRUE(FlagsSolve(s, EvaluateOneLiner(s.values(), sol.params)))
        << s.name() << " " << sol.params.ToMatlab();
  }
  // Density and run-to-failure are total functions.
  const DensityStats density = AnalyzeDensity(s);
  EXPECT_LE(density.anomaly_fraction, 1.0 + 1e-9);
  BenchmarkDataset d;
  d.name = "fuzz";
  d.series.push_back(s);
  const RunToFailureReport rtf = AnalyzeRunToFailure(d);
  EXPECT_LE(rtf.num_series, 1u);
  // Label audits.
  (void)AuditConstantRuns(s);
  (void)AuditLabelToggling(s);
}

TEST_P(HostileSeriesFuzz, ScoringIsTotalOnMatchedLengths) {
  Rng rng(GetParam() + 2000);
  const std::size_t n = static_cast<std::size_t>(rng.UniformInt(4, 500));
  std::vector<uint8_t> truth(n);
  std::vector<double> scores(n);
  bool has_pos = false, has_neg = false;
  for (std::size_t i = 0; i < n; ++i) {
    truth[i] = rng.Bernoulli(0.2) ? 1 : 0;
    has_pos |= truth[i] != 0;
    has_neg |= truth[i] == 0;
    scores[i] = rng.Uniform(-10, 10);
  }
  Result<BestF1> best = BestF1OverThresholds(truth, scores);
  ASSERT_TRUE(best.ok());
  EXPECT_GE(best->f1, 0.0);
  EXPECT_LE(best->f1, 1.0);
  Result<BestF1> adjusted = BestPointAdjustedF1(truth, scores);
  ASSERT_TRUE(adjusted.ok());
  EXPECT_GE(adjusted->f1 + 1e-12, best->f1);  // adjust never hurts
  if (has_pos && has_neg) {
    Result<double> auc = RocAuc(truth, scores);
    ASSERT_TRUE(auc.ok());
    EXPECT_GE(*auc, 0.0);
    EXPECT_LE(*auc, 1.0);
    Result<double> ap = PrAuc(truth, scores);
    ASSERT_TRUE(ap.ok());
    EXPECT_GE(*ap, 0.0);
    EXPECT_LE(*ap, 1.0);
  }
  const RangePrResult range = ComputeRangePr(
      RegionsFromBinary(truth),
      RegionsFromScores(scores, 5.0));
  EXPECT_GE(range.f1, 0.0);
  EXPECT_LE(range.f1, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HostileSeriesFuzz,
                         ::testing::Range<uint64_t>(1, 25));

TEST(DegenerateInputsTest, AllDetectorsHandleTinyAndEmptySeries) {
  for (const std::string& name : RegisteredDetectorNames()) {
    Result<std::unique_ptr<AnomalyDetector>> d = MakeDetector(name);
    ASSERT_TRUE(d.ok()) << name;
    for (std::size_t n : {0u, 1u, 2u, 3u}) {
      Result<std::vector<double>> scores = (*d)->Score(Series(n, 1.0), 0);
      if (scores.ok()) {
        EXPECT_EQ(scores->size(), n) << name;
      }
    }
  }
}

// Every registered detector, wrapped in the resilient pipeline, must
// handle §3-style contamination — scattered NaN and -9999 markers plus
// a dropout gap — by either refusing with a clean Status or emitting a
// full-length, all-finite score track. Never a crash, never a NaN out.
class ContaminatedSeriesFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ContaminatedSeriesFuzz, ResilientWrapperNeverCrashesOrEmitsNaN) {
  Rng rng(GetParam());
  Series x = Mix({Sinusoid(1500, 75.0, 1.0, 0.2),
                  GaussianNoise(1500, 0.2, rng)});
  InjectSmoothHump(x, 1100, 40, 1.5);

  FaultInjector injector(GetParam() + 5000);
  injector.Add({FaultType::kNanMissing, 0.05})
      .Add({FaultType::kSentinelMissing, 0.05})
      .Add({FaultType::kDropout, 0.05});
  const Series dirty = injector.Apply(x);

  for (const std::string& name : RegisteredDetectorNames()) {
    Result<std::unique_ptr<AnomalyDetector>> d =
        MakeDetector("resilient:" + name);
    ASSERT_TRUE(d.ok()) << name;
    ExpectFiniteScores((*d)->Score(dirty, 400), dirty.size(),
                       ("resilient:" + name).c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContaminatedSeriesFuzz,
                         ::testing::Range<uint64_t>(1, 6));

TEST(DegenerateInputsTest, ConstantSeriesEverywhere) {
  const Series flat(500, 3.14);
  for (const std::string& name : RegisteredDetectorNames()) {
    Result<std::unique_ptr<AnomalyDetector>> d = MakeDetector(name);
    ASSERT_TRUE(d.ok()) << name;
    Result<std::vector<double>> scores = (*d)->Score(flat, 100);
    if (!scores.ok()) continue;
    for (double s : *scores) {
      ASSERT_TRUE(std::isfinite(s)) << name;
    }
  }
}

}  // namespace
}  // namespace tsad
