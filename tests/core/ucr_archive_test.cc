#include "core/ucr_archive.h"

#include <memory>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/vector_ops.h"
#include "datasets/generators.h"
#include "detectors/discord.h"
#include "detectors/naive.h"
#include "detectors/registry.h"

namespace tsad {
namespace {

TEST(UcrNameTest, FormatAndParseRoundTrip) {
  UcrName name;
  name.base = "BIDMC1";
  name.train_length = 2500;
  name.anomaly_begin = 5400;
  name.anomaly_end = 5600;
  const std::string text = FormatUcrName(name);
  EXPECT_EQ(text, "UCR_Anomaly_BIDMC1_2500_5400_5600");
  Result<UcrName> parsed = ParseUcrName(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->base, "BIDMC1");
  EXPECT_EQ(parsed->train_length, 2500u);
  EXPECT_EQ(parsed->anomaly_begin, 5400u);
  EXPECT_EQ(parsed->anomaly_end, 5600u);
}

TEST(UcrNameTest, BaseMayContainUnderscores) {
  Result<UcrName> parsed = ParseUcrName("UCR_Anomaly_park3m_walk_60000_72150_72495");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->base, "park3m_walk");
  EXPECT_EQ(parsed->anomaly_end, 72495u);
}

TEST(UcrNameTest, PrefixIsOptional) {
  Result<UcrName> parsed = ParseUcrName("ECG1_3000_5000_5100");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->base, "ECG1");
}

TEST(UcrNameTest, RejectsMalformedNames) {
  EXPECT_FALSE(ParseUcrName("UCR_Anomaly_onlybase").ok());
  EXPECT_FALSE(ParseUcrName("base_1_2").ok());          // too few fields
  EXPECT_FALSE(ParseUcrName("base_10_300_200").ok());   // begin >= end
  EXPECT_FALSE(ParseUcrName("base_100_50_200").ok());   // anomaly in train
  EXPECT_FALSE(ParseUcrName("base_x_50_200").ok());     // non-numeric
}

TEST(ValidateUcrDatasetTest, GoodDatasetPasses) {
  LabeledSeries s("UCR_Anomaly_demo_100_500_520", Series(1000, 0.0),
                  {{500, 520}}, 100);
  EXPECT_TRUE(ValidateUcrDataset(s).ok());
}

TEST(ValidateUcrDatasetTest, RejectsMultipleAnomalies) {
  LabeledSeries s("demo", Series(1000, 0.0), {{500, 520}, {700, 710}}, 100);
  EXPECT_FALSE(ValidateUcrDataset(s).ok());
}

TEST(ValidateUcrDatasetTest, RejectsMissingTrainPrefix) {
  LabeledSeries s("demo", Series(1000, 0.0), {{500, 520}}, 0);
  EXPECT_FALSE(ValidateUcrDataset(s).ok());
}

TEST(ValidateUcrDatasetTest, RejectsNameLabelDisagreement) {
  LabeledSeries s("UCR_Anomaly_demo_100_400_420", Series(1000, 0.0),
                  {{500, 520}}, 100);
  EXPECT_FALSE(ValidateUcrDataset(s).ok());
}

TEST(MakeUcrDatasetTest, EveryInjectionKindProducesAValidDataset) {
  for (UcrInjection kind :
       {UcrInjection::kSpike, UcrInjection::kDropout, UcrInjection::kFreeze,
        UcrInjection::kSmoothHump, UcrInjection::kTimeWarp}) {
    Rng rng(static_cast<uint64_t>(kind) + 1);
    Series base = Mix({Sinusoid(4000, 100.0, 1.0, 0.0),
                       GaussianNoise(4000, 0.05, rng)});
    Result<LabeledSeries> made =
        MakeUcrDataset("base", std::move(base), 1000, kind, rng);
    ASSERT_TRUE(made.ok()) << UcrInjectionName(kind);
    EXPECT_TRUE(ValidateUcrDataset(*made).ok())
        << UcrInjectionName(kind) << ": " << made->name();
  }
}

TEST(MakeUcrDatasetTest, RejectsTooShortBase) {
  Rng rng(9);
  EXPECT_FALSE(
      MakeUcrDataset("tiny", Series(100, 0.0), 64, UcrInjection::kSpike, rng)
          .ok());
}

TEST(RateDifficultyTest, SpanOfDifficulties) {
  Rng rng(5);
  // Trivial: a huge spike on noise.
  {
    Series x = GaussianNoise(4000, 1.0, rng);
    const AnomalyRegion r = InjectSpike(x, 2500, 30.0);
    LabeledSeries s("trivial", std::move(x), {r}, 1000);
    EXPECT_EQ(RateDifficulty(s), UcrDifficulty::kTrivial);
  }
  // Moderate: a distorted cycle in a periodic signal (invisible to
  // diff thresholds, obvious to discords).
  {
    Series x = Sinusoid(4000, 64.0, 1.0, 0.0);
    InjectTimeWarp(x, 2500, 128, 1.7);
    Series noisy = Add(x, GaussianNoise(4000, 0.01, rng));
    LabeledSeries s("moderate", std::move(noisy), {{2500, 2628}}, 1000);
    const UcrDifficulty d = RateDifficulty(s, 64);
    EXPECT_NE(d, UcrDifficulty::kTrivial);
  }
  // Hard: label on pure noise.
  {
    Series x = GaussianNoise(4000, 1.0, rng);
    LabeledSeries s("hard", std::move(x), {{2500, 2501}}, 1000);
    EXPECT_EQ(RateDifficulty(s), UcrDifficulty::kHard);
  }
}

TEST(BuildDemoArchiveTest, AllDatasetsHonorTheContract) {
  const UcrArchive archive = BuildDemoArchive();
  EXPECT_GE(archive.datasets.size(), 8u);
  for (const LabeledSeries& s : archive.datasets) {
    EXPECT_TRUE(ValidateUcrDataset(s).ok()) << s.name();
  }
}

TEST(BuildDemoArchiveTest, Deterministic) {
  const UcrArchive a = BuildDemoArchive(7);
  const UcrArchive b = BuildDemoArchive(7);
  ASSERT_EQ(a.datasets.size(), b.datasets.size());
  for (std::size_t i = 0; i < a.datasets.size(); ++i) {
    EXPECT_EQ(a.datasets[i].values(), b.datasets[i].values());
  }
}

TEST(EvaluateOnArchiveTest, DiscordBeatsLastPoint) {
  const UcrArchive archive = BuildDemoArchive();
  DiscordDetector discord(64);
  LastPointDetector last_point;
  const UcrAccuracy discord_acc = EvaluateOnArchive(discord, archive);
  const UcrAccuracy naive_acc = EvaluateOnArchive(last_point, archive);
  EXPECT_EQ(discord_acc.total, archive.datasets.size());
  EXPECT_GT(discord_acc.accuracy(), naive_acc.accuracy());
  EXPECT_GE(discord_acc.accuracy(), 0.5);  // decades-old method does OK
}

TEST(EvaluateOnArchiveTest, OutcomesRecordPredictions) {
  const UcrArchive archive = BuildDemoArchive();
  DiscordDetector discord(64);
  const UcrAccuracy acc = EvaluateOnArchive(discord, archive);
  ASSERT_EQ(acc.outcomes.size(), archive.datasets.size());
  for (const UcrSeriesOutcome& o : acc.outcomes) {
    EXPECT_FALSE(o.series_name.empty());
  }
}

TEST(EvaluateOnArchiveTest, SharedResilientInstanceMatchesSerialRun) {
  // Pool workers share the one resilient instance; the outcomes equal a
  // one-thread run's, in archive order.
  const UcrArchive archive = BuildDemoArchive();
  Result<std::unique_ptr<AnomalyDetector>> d =
      MakeDetector("resilient:zscore:w=64");
  ASSERT_TRUE(d.ok());
  SetParallelThreads(1);
  const UcrAccuracy serial = EvaluateOnArchive(**d, archive);
  SetParallelThreads(4);
  const UcrAccuracy parallel = EvaluateOnArchive(**d, archive);
  SetParallelThreads(0);
  ASSERT_EQ(parallel.outcomes.size(), serial.outcomes.size());
  EXPECT_EQ(parallel.correct, serial.correct);
  for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
    EXPECT_EQ(parallel.outcomes[i].series_name, serial.outcomes[i].series_name);
    EXPECT_EQ(parallel.outcomes[i].predicted, serial.outcomes[i].predicted);
    EXPECT_EQ(parallel.outcomes[i].correct, serial.outcomes[i].correct);
  }
}

TEST(UcrEnumNamesTest, AllNamed) {
  EXPECT_EQ(UcrInjectionName(UcrInjection::kTimeWarp), "time-warp");
  EXPECT_EQ(UcrDifficultyName(UcrDifficulty::kModerate), "moderate");
}

}  // namespace
}  // namespace tsad
