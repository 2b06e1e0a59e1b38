#include "core/leaderboard.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "common/parallel.h"
#include "detectors/registry.h"

namespace tsad {
namespace {

TEST(LeaderboardParseTest, EmptyAndAllSelectEverything) {
  for (const char* list : {"", "all"}) {
    Result<std::vector<LeaderboardMetric>> metrics =
        ParseLeaderboardMetrics(list);
    ASSERT_TRUE(metrics.ok());
    EXPECT_EQ(metrics->size(), kNumLeaderboardMetrics);
    Result<std::vector<LeaderboardFamily>> families =
        ParseLeaderboardFamilies(list);
    ASSERT_TRUE(families.ok());
    EXPECT_EQ(families->size(), kNumLeaderboardFamilies);
  }
}

TEST(LeaderboardParseTest, CommaListsAndDedup) {
  Result<std::vector<LeaderboardMetric>> metrics =
      ParseLeaderboardMetrics("nab,point_f1,nab");
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics->size(), 2u);
  EXPECT_EQ((*metrics)[0], LeaderboardMetric::kNab);
  EXPECT_EQ((*metrics)[1], LeaderboardMetric::kPointF1);

  Result<std::vector<LeaderboardFamily>> families =
      ParseLeaderboardFamilies("gait,yahoo");
  ASSERT_TRUE(families.ok());
  ASSERT_EQ(families->size(), 2u);
  EXPECT_EQ((*families)[0], LeaderboardFamily::kGait);
  EXPECT_EQ((*families)[1], LeaderboardFamily::kYahoo);
}

TEST(LeaderboardParseTest, UnknownNamesGetDidYouMean) {
  Result<std::vector<LeaderboardMetric>> metrics =
      ParseLeaderboardMetrics("affilation_f1");
  ASSERT_FALSE(metrics.ok());
  EXPECT_NE(metrics.status().message().find("did you mean 'affiliation_f1'"),
            std::string::npos)
      << metrics.status().message();

  Result<std::vector<LeaderboardFamily>> families =
      ParseLeaderboardFamilies("yahooo");
  ASSERT_FALSE(families.ok());
  EXPECT_NE(families.status().message().find("did you mean 'yahoo'"),
            std::string::npos)
      << families.status().message();
}

TEST(LeaderboardTest, DefaultDetectorsCoverRegistryTwice) {
  const std::vector<std::string> specs = DefaultLeaderboardDetectors();
  const std::vector<std::string> names = RegisteredDetectorNames();
  EXPECT_EQ(specs.size(), 2 * names.size());
  std::size_t resilient = 0;
  for (const std::string& s : specs) {
    if (s.rfind("resilient:", 0) == 0) ++resilient;
  }
  EXPECT_EQ(resilient, names.size());
}

TEST(LeaderboardTest, FamilyBuildersAreDeterministicAndCapped) {
  for (std::size_t f = 0; f < kNumLeaderboardFamilies; ++f) {
    const auto family = static_cast<LeaderboardFamily>(f);
    SCOPED_TRACE(LeaderboardFamilyName(family));
    const std::vector<LabeledSeries> a = BuildLeaderboardFamily(family, 42, 2);
    const std::vector<LabeledSeries> b = BuildLeaderboardFamily(family, 42, 2);
    ASSERT_FALSE(a.empty());
    EXPECT_LE(a.size(), 2u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].values(), b[i].values());
      EXPECT_EQ(a[i].anomalies().size(), b[i].anomalies().size());
      // Every board series must support the semi-supervised detectors
      // and carry at least one labeled event to score against.
      EXPECT_GT(a[i].train_length(), 0u) << a[i].name();
      EXPECT_FALSE(a[i].anomalies().empty()) << a[i].name();
      EXPECT_TRUE(a[i].Validate().ok()) << a[i].name();
    }
  }
}

TEST(LeaderboardTest, UnknownDetectorFailsFast) {
  LeaderboardConfig config;
  config.detectors = {"zscore", "zscoer"};
  config.families = {LeaderboardFamily::kGait};
  Result<LeaderboardReport> report = RunLeaderboard(config);
  EXPECT_FALSE(report.ok());
}

LeaderboardConfig SmokeConfig() {
  LeaderboardConfig config;
  config.detectors = {"zscore", "oneliner", "constantrun"};
  config.families = {LeaderboardFamily::kGait, LeaderboardFamily::kNab};
  config.max_series_per_family = 2;
  return config;
}

TEST(LeaderboardTest, SmokeRunStructure) {
  Result<LeaderboardReport> report = RunLeaderboard(SmokeConfig());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->detectors.size(), 3u);
  EXPECT_EQ(report->families.size(), 2u);
  EXPECT_EQ(report->metrics.size(), kNumLeaderboardMetrics);
  ASSERT_EQ(report->cells.size(), 6u);
  for (const LeaderboardCell& cell : report->cells) {
    EXPECT_GT(cell.series_scored, 0u)
        << cell.detector << " on " << cell.family;
    ASSERT_EQ(cell.values.size(), kNumLeaderboardMetrics);
    for (std::size_t m = 0; m < cell.values.size(); ++m) {
      EXPECT_TRUE(std::isfinite(cell.values[m]))
          << cell.detector << " on " << cell.family << " metric " << m;
    }
  }
  // Detector-major layout.
  EXPECT_EQ(report->cells[0].detector, "zscore");
  EXPECT_EQ(report->cells[0].family, "gait");
  EXPECT_EQ(report->cells[1].family, "nab");
}

TEST(LeaderboardTest, JsonIdenticalAcrossThreadCounts) {
  SetParallelThreads(1);
  Result<LeaderboardReport> serial = RunLeaderboard(SmokeConfig());
  SetParallelThreads(2);
  Result<LeaderboardReport> two = RunLeaderboard(SmokeConfig());
  SetParallelThreads(0);  // hardware concurrency
  Result<LeaderboardReport> hw = RunLeaderboard(SmokeConfig());
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(two.ok());
  ASSERT_TRUE(hw.ok());
  const std::string a = LeaderboardJson(*serial);
  EXPECT_EQ(a, LeaderboardJson(*two));
  EXPECT_EQ(a, LeaderboardJson(*hw));
  EXPECT_NE(a.find("\"rank_inversions\""), std::string::npos);
  EXPECT_NE(a.find("\"cells\""), std::string::npos);
}

TEST(LeaderboardTest, TableRendersEveryDetector) {
  Result<LeaderboardReport> report = RunLeaderboard(SmokeConfig());
  ASSERT_TRUE(report.ok());
  const std::string table = FormatLeaderboardTable(*report);
  for (const std::string& d : report->detectors) {
    EXPECT_NE(table.find(d), std::string::npos) << d;
  }
  EXPECT_NE(table.find("rank inversions"), std::string::npos);
}

// A resilient: row reuses its inner row's scores only when that row is
// on the board, so its cells must not depend on whether it is. The
// board includes a spec that fails on nab and yahoo (semisup:m=2048
// needs a 4096-point training prefix), so the wrapper's retry and
// fallback run from a reused failure as well.
TEST(LeaderboardTest, ResilientCellsIndependentOfInnerRowOnBoard) {
  LeaderboardConfig with_inner;
  with_inner.detectors = {"semisup:m=2048", "resilient:semisup:m=2048",
                          "zscore", "resilient:zscore"};
  with_inner.families = {LeaderboardFamily::kGait, LeaderboardFamily::kNab,
                         LeaderboardFamily::kYahoo};
  with_inner.max_series_per_family = 2;
  LeaderboardConfig wrappers_only = with_inner;
  wrappers_only.detectors = {"resilient:semisup:m=2048", "resilient:zscore"};

  const auto cell = [](const LeaderboardReport& report,
                       const std::string& detector,
                       const std::string& family) -> const LeaderboardCell& {
    for (const LeaderboardCell& c : report.cells) {
      if (c.detector == detector && c.family == family) return c;
    }
    ADD_FAILURE() << "no cell " << detector << " x " << family;
    return report.cells.front();
  };
  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    SetParallelThreads(threads);
    const Result<LeaderboardReport> full = RunLeaderboard(with_inner);
    const Result<LeaderboardReport> alone = RunLeaderboard(wrappers_only);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    ASSERT_TRUE(alone.ok()) << alone.status().ToString();
    ASSERT_EQ(alone->cells.size(), 6u);
    for (const LeaderboardCell& mine : alone->cells) {
      SCOPED_TRACE(mine.detector + " x " + mine.family);
      const LeaderboardCell& theirs = cell(*full, mine.detector, mine.family);
      EXPECT_EQ(mine.series_scored, theirs.series_scored);
      EXPECT_EQ(mine.detector_errors, theirs.detector_errors);
      ASSERT_EQ(mine.values.size(), theirs.values.size());
      for (std::size_t m = 0; m < mine.values.size(); ++m) {
        EXPECT_EQ(std::memcmp(&mine.values[m], &theirs.values[m],
                              sizeof(double)),
                  0)
            << "metric " << m;
      }
    }
    // The failing path really runs: plain semisup refuses both series
    // on nab and yahoo, and its wrapper still scores them.
    for (const char* family : {"nab", "yahoo"}) {
      SCOPED_TRACE(family);
      EXPECT_EQ(cell(*full, "semisup:m=2048", family).series_scored, 0u);
      EXPECT_EQ(cell(*full, "semisup:m=2048", family).detector_errors, 2u);
      EXPECT_EQ(cell(*full, "resilient:semisup:m=2048", family).series_scored,
                2u);
    }
  }
  SetParallelThreads(0);
}

// Hand-built cell grid: detector A beats B on point-adjust but loses
// on nab — exactly one discordant pair, attributed the right way round.
TEST(LeaderboardTest, ComputeRankInversionsFindsDiscordantPair) {
  const std::vector<std::string> detectors = {"a", "b"};
  const std::vector<std::string> families = {"fam"};
  const std::vector<LeaderboardMetric> metrics = {
      LeaderboardMetric::kPointAdjustF1, LeaderboardMetric::kNab};
  std::vector<LeaderboardCell> cells(2);
  cells[0] = {"a", "fam", {0.9, 0.1}, 1, 0};
  cells[1] = {"b", "fam", {0.4, 0.7}, 1, 0};
  std::size_t total = 0;
  const std::vector<RankInversionStat> stats =
      ComputeRankInversions(cells, detectors, families, metrics, &total);
  EXPECT_EQ(total, 1u);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].family, "fam");
  EXPECT_EQ(stats[0].metric, "nab");
  EXPECT_EQ(stats[0].discordant_pairs, 1u);
  EXPECT_EQ(stats[0].flattered, "a");
  EXPECT_EQ(stats[0].robbed, "b");
  EXPECT_DOUBLE_EQ(stats[0].flattered_point_adjust, 0.9);
  EXPECT_DOUBLE_EQ(stats[0].robbed_value, 0.7);
}

TEST(LeaderboardTest, ComputeRankInversionsIgnoresConcordantAndNan) {
  const std::vector<std::string> detectors = {"a", "b", "c"};
  const std::vector<std::string> families = {"fam"};
  const std::vector<LeaderboardMetric> metrics = {
      LeaderboardMetric::kPointAdjustF1, LeaderboardMetric::kNab};
  const double nan = std::nan("");
  std::vector<LeaderboardCell> cells(3);
  cells[0] = {"a", "fam", {0.9, 0.8}, 1, 0};  // concordant with b
  cells[1] = {"b", "fam", {0.4, 0.3}, 1, 0};
  cells[2] = {"c", "fam", {nan, nan}, 0, 1};  // never scored
  std::size_t total = 7;  // must be overwritten
  const std::vector<RankInversionStat> stats =
      ComputeRankInversions(cells, detectors, families, metrics, &total);
  EXPECT_EQ(total, 0u);
  EXPECT_TRUE(stats.empty());
}

TEST(LeaderboardTest, ComputeRankInversionsNeedsPointAdjust) {
  const std::vector<std::string> detectors = {"a", "b"};
  const std::vector<std::string> families = {"fam"};
  const std::vector<LeaderboardMetric> metrics = {LeaderboardMetric::kNab};
  std::vector<LeaderboardCell> cells(2);
  cells[0] = {"a", "fam", {0.1}, 1, 0};
  cells[1] = {"b", "fam", {0.7}, 1, 0};
  std::size_t total = 7;
  EXPECT_TRUE(
      ComputeRankInversions(cells, detectors, families, metrics, &total)
          .empty());
  EXPECT_EQ(total, 0u);
}

}  // namespace
}  // namespace tsad
