#include "datasets/yahoo.h"

#include <set>

#include <gtest/gtest.h>

#include "core/triviality.h"

namespace tsad {
namespace {

class YahooArchiveTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { archive_ = new YahooArchive(GenerateYahooArchive()); }
  static void TearDownTestSuite() {
    delete archive_;
    archive_ = nullptr;
  }
  static const YahooArchive& archive() { return *archive_; }

 private:
  static const YahooArchive* archive_;
};

const YahooArchive* YahooArchiveTest::archive_ = nullptr;

TEST_F(YahooArchiveTest, HasThePaperCounts) {
  EXPECT_EQ(archive().a1.size(), 67u);
  EXPECT_EQ(archive().a2.size(), 100u);
  EXPECT_EQ(archive().a3.size(), 100u);
  EXPECT_EQ(archive().a4.size(), 100u);
}

TEST_F(YahooArchiveTest, EverySeriesValidates) {
  for (const BenchmarkDataset* d : archive().all()) {
    EXPECT_TRUE(d->Validate().ok()) << d->name;
  }
}

TEST_F(YahooArchiveTest, EverySeriesHasAtLeastOneAnomaly) {
  for (const BenchmarkDataset* d : archive().all()) {
    for (const LabeledSeries& s : d->series) {
      EXPECT_GE(s.anomalies().size(), 1u) << s.name();
    }
  }
}

TEST_F(YahooArchiveTest, KindVectorsAreParallel) {
  EXPECT_EQ(archive().a1_kinds.size(), archive().a1.size());
  EXPECT_EQ(archive().a2_kinds.size(), archive().a2.size());
  EXPECT_EQ(archive().a3_kinds.size(), archive().a3.size());
  EXPECT_EQ(archive().a4_kinds.size(), archive().a4.size());
}

TEST_F(YahooArchiveTest, DeterministicForSameSeed) {
  const YahooArchive again = GenerateYahooArchive();
  ASSERT_EQ(again.a1.size(), archive().a1.size());
  for (std::size_t i = 0; i < again.a1.size(); ++i) {
    EXPECT_EQ(again.a1.series[i].values(), archive().a1.series[i].values());
  }
}

TEST_F(YahooArchiveTest, DifferentSeedDiffers) {
  YahooConfig config;
  config.seed = 777;
  const YahooArchive other = GenerateYahooArchive(config);
  EXPECT_NE(other.a1.series[0].values(), archive().a1.series[0].values());
}

TEST_F(YahooArchiveTest, DuplicatePairIsPlanted) {
  const LabeledSeries* r13 = nullptr;
  const LabeledSeries* r15 = nullptr;
  for (const LabeledSeries& s : archive().a1.series) {
    if (s.name() == "A1-Real13") r13 = &s;
    if (s.name() == "A1-Real15") r15 = &s;
  }
  ASSERT_NE(r13, nullptr);
  ASSERT_NE(r15, nullptr);
  EXPECT_EQ(r13->values(), r15->values());  // §2.4: duplicated datasets
}

TEST_F(YahooArchiveTest, PlantedDefectsAreRecorded) {
  std::set<std::string> kinds;
  for (const PlantedDefect& d : archive().planted_defects) {
    kinds.insert(d.kind);
  }
  EXPECT_TRUE(kinds.count("half-labeled-constant"));
  EXPECT_TRUE(kinds.count("unlabeled-twin-dropout"));
  EXPECT_TRUE(kinds.count("false-positive-label"));
  EXPECT_TRUE(kinds.count("toggling-labels"));
  EXPECT_TRUE(kinds.count("duplicate-of-A1-Real13"));
}

TEST_F(YahooArchiveTest, Real1HasTheSandwichDensityQuirk) {
  // §2.3 / Fig 3: two anomalies sandwiching a single normal datapoint.
  const LabeledSeries& real1 = archive().a1.series[0];
  ASSERT_EQ(real1.name(), "A1-Real1");
  ASSERT_GE(real1.anomalies().size(), 2u);
  bool sandwich = false;
  for (std::size_t i = 1; i < real1.anomalies().size(); ++i) {
    if (real1.anomalies()[i].begin - real1.anomalies()[i - 1].end == 1) {
      sandwich = true;
    }
  }
  EXPECT_TRUE(sandwich);
}

TEST_F(YahooArchiveTest, TrivialityLandsNearTable1) {
  // The headline reproduction: sub-benchmark solve rates within a few
  // points of the paper's Table 1.
  const TrivialityReport report = AnalyzeTriviality(archive().all());
  ASSERT_EQ(report.datasets.size(), 4u);
  EXPECT_NEAR(report.datasets[0].solved_percent(), 65.7, 8.0);  // A1
  EXPECT_NEAR(report.datasets[1].solved_percent(), 97.0, 4.0);  // A2
  EXPECT_NEAR(report.datasets[2].solved_percent(), 98.0, 4.0);  // A3
  EXPECT_NEAR(report.datasets[3].solved_percent(), 77.0, 6.0);  // A4
  EXPECT_NEAR(report.solved_percent(), 86.1, 4.0);              // total
}

TEST_F(YahooArchiveTest, A1AnomaliesSkewTowardTheEnd) {
  // §2.5 run-to-failure: mean relative position of the last anomaly in
  // A1 is well past the middle.
  double sum = 0.0;
  std::size_t count = 0;
  for (const LabeledSeries& s : archive().a1.series) {
    if (s.anomalies().empty()) continue;
    sum += static_cast<double>(s.anomalies().back().begin) /
           static_cast<double>(s.length());
    ++count;
  }
  EXPECT_GT(sum / static_cast<double>(count), 0.60);
}

TEST(YahooConfigTest, CustomCountsHonored) {
  YahooConfig config;
  config.a1_count = 10;
  config.a2_count = 5;
  config.a3_count = 5;
  config.a4_count = 5;
  config.a1_length = 800;
  config.synthetic_length = 900;
  const YahooArchive small = GenerateYahooArchive(config);
  EXPECT_EQ(small.a1.size() + small.a2.size() + small.a3.size() +
                small.a4.size(),
            25u);
  EXPECT_EQ(small.a1.series[0].length(), 800u);
  EXPECT_EQ(small.a3.series[0].length(), 900u);
}

}  // namespace
}  // namespace tsad
