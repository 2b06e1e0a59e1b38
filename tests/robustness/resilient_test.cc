#include "robustness/resilient.h"

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "tsad.h"

namespace tsad {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// A labeled series with one planted anomaly, then corrupted with the
// acceptance-criteria fault mix: 10% scattered NaN/-9999 markers plus a
// 5% dropout gap (placed in the training region by the chosen seed so
// the test-region ground truth survives the damage).
struct DirtyFixture {
  LabeledSeries clean;
  LabeledSeries dirty;
};

DirtyFixture MakeDirtyFixture() {
  Rng rng(7);
  Series x = Mix({Sinusoid(3000, 120.0, 1.0, 0.0),
                  GaussianNoise(3000, 0.1, rng)});
  const AnomalyRegion anomaly = InjectSmoothHump(x, 2300, 60, 1.4);
  LabeledSeries clean("dirty-fixture", std::move(x), {anomaly}, 900);

  FaultInjector injector(14);
  injector.Add({FaultType::kNanMissing, 0.05})
      .Add({FaultType::kSentinelMissing, 0.05})
      .Add({FaultType::kDropout, 0.05});
  LabeledSeries dirty = injector.Apply(clean);
  return {std::move(clean), std::move(dirty)};
}

std::unique_ptr<AnomalyDetector> ZScoreFallback() {
  Result<std::unique_ptr<AnomalyDetector>> d = MakeDetector("zscore:w=64");
  EXPECT_TRUE(d.ok());
  return std::move(d.value());
}

class AlwaysFailsDetector : public AnomalyDetector {
 public:
  std::string_view name() const override { return "AlwaysFails"; }
  using AnomalyDetector::Score;
  Result<std::vector<double>> Score(const Series&,
                                    std::size_t) const override {
    return Status::Internal("deliberate failure");
  }
};

// Emits a valid track except for `bad` leading NaN scores.
class PartiallyNanDetector : public AnomalyDetector {
 public:
  explicit PartiallyNanDetector(std::size_t bad) : bad_(bad) {}
  std::string_view name() const override { return "PartiallyNan"; }
  using AnomalyDetector::Score;
  Result<std::vector<double>> Score(const Series& series,
                                    std::size_t) const override {
    std::vector<double> scores(series.size(), 1.0);
    for (std::size_t i = 0; i < std::min(bad_, scores.size()); ++i) {
      scores[i] = kNan;
    }
    if (!scores.empty()) scores.back() = 5.0;
    return scores;
  }

 private:
  std::size_t bad_;
};

// ---------------------------------------------------------------------
// The headline acceptance test: the bare matrix-profile detector is
// useless on the contaminated series while the registry-built
// resilient:discord:m=128 serves finite, full-length, correct scores.
TEST(ResilientDetectorTest, SurvivesAcceptanceFaultMixWhereBareFails) {
  const DirtyFixture f = MakeDirtyFixture();

  DiscordDetector bare(128);
  Result<std::vector<double>> bare_scores = bare.Score(f.dirty);
  if (bare_scores.ok()) {
    // NaNs poison the matrix profile: the track carries no signal
    // (flatlined or non-finite), so the location prediction is garbage.
    std::vector<double> patched = *bare_scores;
    const std::size_t non_finite = SanitizeScores(patched);
    EXPECT_TRUE(non_finite > 0 || Discrimination(patched) == 0.0);
  }

  Result<std::unique_ptr<AnomalyDetector>> resilient =
      MakeDetector("resilient:discord:m=128");
  ASSERT_TRUE(resilient.ok());
  Result<std::vector<double>> scores = (*resilient)->Score(f.dirty);
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  ASSERT_EQ(scores->size(), f.dirty.length());
  for (double s : *scores) ASSERT_TRUE(std::isfinite(s));

  const std::size_t peak = PredictLocation(*scores, f.dirty.train_length());
  const AnomalyRegion truth = f.clean.anomalies()[0];
  EXPECT_GE(peak + 100, truth.begin);
  EXPECT_LT(peak, truth.end + 100);
}

TEST(ResilientDetectorTest, DeterministicAcrossRepeatedCalls) {
  const DirtyFixture f = MakeDirtyFixture();
  Result<std::unique_ptr<AnomalyDetector>> d =
      MakeDetector("resilient:discord:m=128");
  ASSERT_TRUE(d.ok());
  Result<std::vector<double>> first = (*d)->Score(f.dirty);
  Result<std::vector<double>> second = (*d)->Score(f.dirty);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
}

TEST(ResilientDetectorTest, CleanInputServedByPrimaryUntouched) {
  Rng rng(3);
  Series x = GaussianNoise(800, 1.0, rng);
  InjectSpike(x, 600, 12.0);

  auto inner = ZScoreFallback();
  const AnomalyDetector* raw = inner.get();
  ResilientDetector resilient(std::move(inner));
  ResilientReport report;
  Result<std::vector<double>> wrapped = resilient.Score(x, 200, &report);
  Result<std::vector<double>> direct = raw->Score(x, 200);
  ASSERT_TRUE(wrapped.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*wrapped, *direct);
  EXPECT_EQ(report.served_by, ServedBy::kPrimary);
  EXPECT_EQ(report.scan.num_missing(), 0u);
}

TEST(ResilientDetectorTest, SimplifiedRetryRunsBeforeFallback) {
  Rng rng(5);
  const Series x = GaussianNoise(300, 1.0, rng);

  ResilientDetector resilient(std::make_unique<AlwaysFailsDetector>(),
                              /*simplified=*/ZScoreFallback(),
                              /*fallback=*/nullptr);
  ResilientReport report;
  Result<std::vector<double>> scores = resilient.Score(x, 50, &report);
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(report.served_by, ServedBy::kSimplified);
  EXPECT_EQ(report.primary_status.code(), StatusCode::kInternal);
}

TEST(ResilientDetectorTest, AllStagesFailingReturnsPrimaryError) {
  Rng rng(6);
  const Series x = GaussianNoise(200, 1.0, rng);

  ResilientDetector resilient(std::make_unique<AlwaysFailsDetector>(),
                              std::make_unique<AlwaysFailsDetector>(),
                              std::make_unique<AlwaysFailsDetector>());
  ResilientReport report;
  Result<std::vector<double>> scores = resilient.Score(x, 50, &report);
  ASSERT_FALSE(scores.ok());
  EXPECT_EQ(scores.status().code(), StatusCode::kInternal);
  EXPECT_EQ(report.served_by, ServedBy::kNone);
}

TEST(ResilientDetectorTest, FewBadScoresArePatchedNotFailed) {
  Rng rng(7);
  const Series x = GaussianNoise(100, 1.0, rng);

  ResilientDetector resilient(std::make_unique<PartiallyNanDetector>(5));
  ResilientReport report;
  Result<std::vector<double>> scores = resilient.Score(x, 10, &report);
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(report.served_by, ServedBy::kPrimary);
  EXPECT_EQ(report.scores_patched, 5u);
  for (double s : *scores) EXPECT_TRUE(std::isfinite(s));
}

TEST(ResilientDetectorTest, MostlyBadTrackCountsAsFailure) {
  Rng rng(8);
  const Series x = GaussianNoise(100, 1.0, rng);

  ResilientDetector resilient(std::make_unique<PartiallyNanDetector>(90),
                              /*simplified=*/nullptr, ZScoreFallback());
  ResilientReport report;
  Result<std::vector<double>> scores = resilient.Score(x, 10, &report);
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(report.served_by, ServedBy::kFallback);
  EXPECT_EQ(report.primary_status.code(), StatusCode::kInternal);
}

TEST(ResilientDetectorTest, TooDamagedInputIsResourceExhausted) {
  Series x(100, kNan);
  for (std::size_t i = 0; i < 20; ++i) x[i] = 1.0;  // 80% missing

  ResilientDetector resilient(ZScoreFallback());
  Result<std::vector<double>> scores = resilient.Score(x, 10);
  ASSERT_FALSE(scores.ok());
  EXPECT_EQ(scores.status().code(), StatusCode::kResourceExhausted);
}

TEST(ResilientDetectorTest, NameWrapsInnerName) {
  ResilientDetector resilient(ZScoreFallback());
  EXPECT_EQ(std::string(resilient.name()), "resilient(MovingZScore[w=64])");
}

// ---------------------------------------------------------------------
// ScoreReusing: the inner detector's own result stands in for the
// primary stage, and nothing observable changes.

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Score() and then ScoreReusing(supplied) on the same instance must
// agree on the status or the bytes, and on the report.
void ExpectReuseMatchesScore(const ResilientDetector& resilient,
                             const Series& x, std::size_t train,
                             const Result<std::vector<double>>& supplied) {
  ResilientReport scored_report, reused_report;
  const Result<std::vector<double>> scored =
      resilient.Score(x, train, &scored_report);
  const Result<std::vector<double>> reused =
      resilient.ScoreReusing(x, train, supplied, &reused_report);
  ASSERT_EQ(reused.ok(), scored.ok()) << reused.status().ToString();
  if (scored.ok()) {
    EXPECT_TRUE(SameBytes(*reused, *scored));
  } else {
    EXPECT_EQ(reused.status().code(), scored.status().code());
    EXPECT_EQ(reused.status().message(), scored.status().message());
  }
  EXPECT_EQ(reused_report.served_by, scored_report.served_by);
  EXPECT_EQ(reused_report.scores_patched, scored_report.scores_patched);
  EXPECT_EQ(reused_report.primary_status.code(),
            scored_report.primary_status.code());
}

TEST(ResilientReuseTest, InnerResultGivesScoreOutputOnCleanInput) {
  Rng rng(9);
  Series x = GaussianNoise(400, 1.0, rng);
  InjectSpike(x, 300, 8.0);
  const std::size_t train = 100;

  using Factory = std::function<std::unique_ptr<AnomalyDetector>()>;
  const std::vector<std::pair<const char*, Factory>> inners = {
      {"clean", [] { return ZScoreFallback(); }},
      {"5 NaN scores",
       [] { return std::make_unique<PartiallyNanDetector>(5); }},
      {"90 NaN scores",
       [] { return std::make_unique<PartiallyNanDetector>(90); }},
      {"always fails", [] { return std::make_unique<AlwaysFailsDetector>(); }},
  };
  for (const auto& [label, make_inner] : inners) {
    for (const bool with_simplified : {false, true}) {
      SCOPED_TRACE(std::string(label) +
                   (with_simplified ? ", simplified" : ", no simplified"));
      std::unique_ptr<AnomalyDetector> inner = make_inner();
      const Result<std::vector<double>> supplied = inner->Score(x, train);
      ResilientDetector resilient(
          std::move(inner),
          with_simplified ? std::make_unique<PartiallyNanDetector>(0) : nullptr,
          ZScoreFallback());
      ExpectReuseMatchesScore(resilient, x, train, supplied);
    }
  }
}

TEST(ResilientReuseTest, SuppliedResultReallyServesThePrimaryStage) {
  Rng rng(10);
  const Series x = GaussianNoise(200, 1.0, rng);
  ResilientDetector resilient(ZScoreFallback());
  const std::vector<double> supplied(x.size(), 42.0);
  ResilientReport report;
  const Result<std::vector<double>> reused =
      resilient.ScoreReusing(x, 50, supplied, &report);
  ASSERT_TRUE(reused.ok());
  EXPECT_EQ(*reused, supplied);
  EXPECT_EQ(report.served_by, ServedBy::kPrimary);
}

// Wherever the primary stage would not make the inner detector's plain
// call, a supplied result (here a wrong one) must be ignored.
TEST(ResilientReuseTest, SuppliedResultIgnoredWhereTheCallWouldDiffer) {
  Rng rng(11);
  Series clean = GaussianNoise(400, 1.0, rng);
  InjectSpike(clean, 300, 8.0);
  Series nan_gapped = clean;
  Series sentinel_gapped = clean;
  for (std::size_t i = 40; i < 60; ++i) {
    nan_gapped[i] = kNan;
    sentinel_gapped[i] = kDefaultSentinel;
  }

  const struct {
    const char* label;
    const Series& x;
    std::size_t train;
  } cases[] = {
      {"NaN gap", nan_gapped, 100},
      {"sentinel gap", sentinel_gapped, 100},
      {"train past the end", clean, clean.size() + 10},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.label);
    ResilientDetector resilient(ZScoreFallback(), /*simplified=*/nullptr,
                                ZScoreFallback());
    ExpectReuseMatchesScore(resilient, c.x, c.train,
                            std::vector<double>(c.x.size(), 42.0));
    ExpectReuseMatchesScore(resilient, c.x, c.train,
                            Status::Internal("stale inner result"));
  }
}

TEST(ResilientDetectorTest, OneInstanceScoresFromManyThreadsAsSerially) {
  // Score() keeps no state between calls, so pool workers may share one
  // instance: each call's scores and report equal a serial call's.
  Rng rng(12);
  const Series clean = GaussianNoise(300, 1.0, rng);
  Series gapped = clean;
  for (std::size_t i = 100; i < 110; ++i) gapped[i] = kNan;
  const ResilientDetector resilient(std::make_unique<PartiallyNanDetector>(5),
                                    /*simplified=*/nullptr, ZScoreFallback());
  constexpr std::size_t kCalls = 32;
  auto call = [&](std::size_t i, ResilientReport* report) {
    return resilient.Score(i % 2 == 0 ? clean : gapped, 50, report);
  };

  SetParallelThreads(4);
  std::vector<ResilientReport> reports(kCalls);
  const Result<std::vector<std::vector<double>>> shared =
      ParallelMap<std::vector<double>>(
          kCalls, [&](std::size_t i) { return call(i, &reports[i]); });
  SetParallelThreads(0);
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();
  for (std::size_t i = 0; i < kCalls; ++i) {
    ResilientReport report;
    const Result<std::vector<double>> serial = call(i, &report);
    ASSERT_TRUE(serial.ok());
    EXPECT_TRUE(SameBytes((*shared)[i], *serial)) << "call " << i;
    EXPECT_EQ(reports[i].served_by, report.served_by) << "call " << i;
    EXPECT_EQ(reports[i].scores_patched, report.scores_patched) << "call " << i;
    EXPECT_EQ(reports[i].scan.num_missing(), report.scan.num_missing())
        << "call " << i;
  }
}

TEST(ServedByNameTest, AllStagesNamed) {
  EXPECT_EQ(ServedByName(ServedBy::kNone), "none");
  EXPECT_EQ(ServedByName(ServedBy::kPrimary), "primary");
  EXPECT_EQ(ServedByName(ServedBy::kSimplified), "simplified");
  EXPECT_EQ(ServedByName(ServedBy::kFallback), "fallback");
}

}  // namespace
}  // namespace tsad
