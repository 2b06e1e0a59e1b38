// Cross-module integration tests: full paper pipelines exercised end to
// end through the public API (umbrella header), on top of the unit
// tests that cover each module in isolation.

#include "tsad.h"

#include <gtest/gtest.h>

namespace tsad {
namespace {

// §2 end-to-end: audit the full simulated Yahoo archive and confirm all
// four flaw classes are found.
TEST(PaperPipelineTest, YahooAuditFindsAllFourFlaws) {
  const YahooArchive archive = GenerateYahooArchive();
  AuditConfig config;
  config.run_twin_search = false;  // covered by mislabel tests
  const BenchmarkAudit audit = AuditBenchmark(archive.a1, config);
  EXPECT_TRUE(audit.irretrievably_flawed);
  // Triviality (most series one-liner solvable).
  EXPECT_GT(audit.triviality.solved_percent(), 50.0);
  // Density (adjacent anomalies exist in A1).
  EXPECT_GE(audit.density.adjacent, 1u);
  // Mislabels (planted defects rediscovered).
  EXPECT_GE(audit.mislabels.size(), 3u);
  // Run-to-failure (mass in the last quintile).
  EXPECT_GT(audit.run_to_failure.fraction_in_last_quintile, 0.3);
}

// Fig 8 end-to-end: discords on the taxi series rediscover unlabeled
// events.
TEST(PaperPipelineTest, TaxiDiscordsFindUnlabeledEvents) {
  const TaxiData taxi = GenerateTaxiData();
  DiscordDetector detector(taxi.buckets_per_day * 2);  // two-day windows
  Result<std::vector<Discord>> discords =
      detector.FindDiscords(taxi.series.values(), 12);
  ASSERT_TRUE(discords.ok());

  std::size_t unlabeled_hits = 0;
  for (const TaxiEvent& e : taxi.events) {
    if (e.officially_labeled) continue;
    const std::size_t begin = e.day * taxi.buckets_per_day;
    const std::size_t end = begin + e.duration_days * taxi.buckets_per_day;
    for (const Discord& d : *discords) {
      const std::size_t d_end = d.position + taxi.buckets_per_day * 2;
      if (d.position < end + taxi.buckets_per_day &&
          begin < d_end + taxi.buckets_per_day) {
        ++unlabeled_hits;
        break;
      }
    }
  }
  // An algorithm "reported as performing very poorly" would actually be
  // discovering real events: at least 4 of the 7 unlabeled events rank
  // among the top discords.
  EXPECT_GE(unlabeled_hits, 4u);
}

// §3 end-to-end: build a UCR-style archive, evaluate several detectors
// under the binary-accuracy protocol, and confirm the sane ordering.
TEST(PaperPipelineTest, UcrProtocolRanksDetectorsSanely) {
  const UcrArchive archive = BuildDemoArchive();
  DiscordDetector discord(64);
  MovingZScoreDetector zscore(64);
  LastPointDetector last_point;

  const double discord_acc = EvaluateOnArchive(discord, archive).accuracy();
  const double zscore_acc = EvaluateOnArchive(zscore, archive).accuracy();
  const double naive_acc = EvaluateOnArchive(last_point, archive).accuracy();

  EXPECT_GT(discord_acc, naive_acc);
  EXPECT_GE(zscore_acc, naive_acc);
}

// §2.3 + scoring: the same detector output scored four ways shows how
// protocol choice manufactures "progress".
TEST(PaperPipelineTest, ScoringProtocolsDisagreePredictably) {
  // A 400-point labeled region; detector fires on a single point of it.
  // Give every other point a small noise score so the threshold sweep
  // cannot trivially admit the whole series.
  Rng rng(99);
  std::vector<uint8_t> truth(2000, 0);
  for (std::size_t i = 1000; i < 1400; ++i) truth[i] = 1;
  std::vector<double> scores(2000);
  for (double& s : scores) s = rng.Uniform(0.0, 0.1);
  scores[1200] = 1.0;

  Result<BestF1> plain = BestF1OverThresholds(truth, scores);
  Result<BestF1> adjusted = BestPointAdjustedF1(truth, scores);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(adjusted.ok());
  EXPECT_LT(plain->f1, 0.45);           // honest-ish: most of the region missed
  EXPECT_DOUBLE_EQ(adjusted->f1, 1.0);  // point-adjust: perfect score
  EXPECT_GT(adjusted->f1, 2.0 * plain->f1);

  const RangePrResult range =
      ComputeRangePr(RegionsFromBinary(truth), {{1200, 1201}});
  EXPECT_GT(range.recall, 0.0);
  EXPECT_LT(range.recall, 0.1);  // range-based stays honest
}

// Telemanom vs Discord on the ECG (Fig 13, condensed): both find the
// clean PVC; under heavy noise the discord's peak stays put.
TEST(PaperPipelineTest, Fig13CondensedNoiseStudy) {
  PhysioConfig cfg;
  cfg.duration_sec = 40.0;
  LabeledSeries ecg = GenerateEcgWithPvc(cfg);
  ecg.set_train_length(3000);  // "first 3,000 datapoints for training"

  DiscordDetector discord(200);
  TelemanomConfig tcfg;
  TelemanomDetector telemanom(tcfg);

  InvarianceConfig config;
  config.levels = {0.0, 1.0};
  config.slop = 250;
  const auto rows = RunInvarianceStudy(ecg, {&discord, &telemanom}, config);
  ASSERT_EQ(rows.size(), 4u);
  // Clean: both peak at the PVC.
  EXPECT_TRUE(rows[0].peak_correct) << "discord clean";
  EXPECT_TRUE(rows[1].peak_correct) << "telemanom clean";
  // Noisy: the discord still peaks in the right place.
  EXPECT_TRUE(rows[2].peak_correct) << "discord noisy";
}

// CSV round trip of a generated archive member (reproducibility /
// inspection story).
TEST(PaperPipelineTest, ArchiveSeriesSurvivesSerialization) {
  const UcrArchive archive = BuildDemoArchive();
  const LabeledSeries& original = archive.datasets.front();
  Result<LabeledSeries> back = SeriesFromCsv(SeriesToCsv(original));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->values(), original.values());
  EXPECT_EQ(back->anomalies(), original.anomalies());
  EXPECT_EQ(back->train_length(), original.train_length());
}

// MERLIN across the gait data: the swapped cycle is the top discord
// across a range of lengths.
TEST(PaperPipelineTest, MerlinFindsTheSwappedGaitCycle) {
  GaitConfig cfg;
  cfg.num_cycles = 26;
  cfg.train_cycles = 13;
  const GaitData gait = GenerateGaitData(cfg);
  const AnomalyRegion r = gait.series.anomalies().front();
  Result<std::vector<LengthDiscord>> sweep =
      MerlinSweep(gait.series.values(), 200, 210);
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  std::size_t hits = 0;
  for (const LengthDiscord& d : *sweep) {
    if (d.position + d.length + 100 > r.begin && d.position < r.end + 100) {
      ++hits;
    }
  }
  EXPECT_GE(hits * 2, sweep->size());  // majority of lengths agree
}

}  // namespace
}  // namespace tsad
