// Reproduces Fig 12: constructing a UCR dataset by synthetic-but-
// plausible insertion (§3.2) — a single left-foot cycle swapped into a
// right-foot force-plate recording of an individual with an asymmetric
// gait. Turn-around speed changes occur in BOTH train and test so they
// must not be flagged.

#include <cstdio>

#include "bench_util.h"
#include "core/ucr_archive.h"
#include "datasets/gait.h"
#include "detectors/discord.h"
#include "scoring/ucr_score.h"

int main() {
  using namespace tsad;
  bench::PrintHeader("FIG 12 -- UCR dataset from asymmetric gait");

  GaitConfig config;
  const GaitData gait = GenerateGaitData(config);
  std::printf("Dataset: %s\n", gait.series.name().c_str());
  const AnomalyRegion r = gait.series.anomalies().front();
  std::printf("  swapped cycle: #%zu at [%zu, %zu)\n", gait.anomaly_cycle,
              r.begin, r.end);
  std::printf("  turnaround (speed change) every %zu cycles -- present in "
              "train AND test\n", kGaitTurnaroundEvery);
  std::printf("\n%s\n", bench::Sparkline(gait.series.values()).c_str());

  std::printf("UCR contract validation: %s\n",
              ValidateUcrDataset(gait.series).ToString().c_str());
  std::printf("Difficulty rating: %s\n",
              std::string(UcrDifficultyName(
                              RateDifficulty(gait.series, kGaitCycleLength)))
                  .c_str());

  DiscordDetector discord(kGaitCycleLength);
  Result<std::vector<double>> scores = discord.Score(gait.series);
  if (!scores.ok()) {
    std::printf("%s\n", scores.status().ToString().c_str());
    return 1;
  }
  std::printf("\nDiscord score (m = one cycle):\n%s\n",
              bench::Sparkline(*scores).c_str());
  const std::size_t predicted =
      PredictLocation(*scores, gait.series.train_length());
  Result<UcrSeriesOutcome> outcome = ScoreUcrSeries(gait.series, predicted);
  if (outcome.ok()) {
    std::printf("Discord's answer: %zu -> %s\n", predicted,
                outcome->correct ? "CORRECT" : "incorrect");
  }

  // Turnarounds must NOT dominate: check the top-3 discords.
  Result<std::vector<Discord>> top =
      discord.FindDiscords(gait.series.values(), 3);
  if (top.ok()) {
    std::printf("\nTop discords:\n");
    for (const Discord& d : *top) {
      const bool is_anomaly = d.position < r.end + 100 &&
                              r.begin < d.position + kGaitCycleLength + 100;
      std::printf("  position %6zu  distance %7.3f  %s\n", d.position,
                  d.distance,
                  is_anomaly ? "<- the swapped cycle" : "");
    }
  }
  return 0;
}
