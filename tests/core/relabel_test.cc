#include "core/relabel.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datasets/generators.h"
#include "datasets/nasa.h"
#include "scoring/confusion.h"

namespace tsad {
namespace {

MislabelFinding Finding(MislabelKind kind, const std::string& series,
                        AnomalyRegion proposed) {
  MislabelFinding f;
  f.kind = kind;
  f.series_name = series;
  f.proposed = proposed;
  return f;
}

TEST(RelabelTest, TwinBecomesGroundTruth) {
  LabeledSeries s("t", Series(1000, 0.0), {{100, 110}});
  RelabelSummary summary;
  const LabeledSeries fixed = ApplyFindings(
      s, {Finding(MislabelKind::kUnlabeledTwin, "t", {700, 710})}, &summary);
  ASSERT_EQ(fixed.anomalies().size(), 2u);
  EXPECT_EQ(fixed.anomalies()[1], (AnomalyRegion{700, 710}));
  EXPECT_EQ(summary.twins_added, 1u);
}

TEST(RelabelTest, HalfLabeledRunIsExtended) {
  LabeledSeries s("t", Series(1000, 0.0), {{200, 230}});
  const LabeledSeries fixed = ApplyFindings(
      s, {Finding(MislabelKind::kHalfLabeledConstant, "t", {200, 260})});
  ASSERT_EQ(fixed.anomalies().size(), 1u);
  EXPECT_EQ(fixed.anomalies()[0], (AnomalyRegion{200, 260}));
}

TEST(RelabelTest, TogglingChainCollapses) {
  std::vector<AnomalyRegion> toggles;
  for (std::size_t off = 0; off < 60; off += 6) {
    toggles.push_back({500 + off, 503 + off});
  }
  LabeledSeries s("t", Series(1000, 0.0), toggles);
  RelabelSummary summary;
  const LabeledSeries fixed = ApplyFindings(
      s, {Finding(MislabelKind::kLabelToggling, "t", {500, 557})}, &summary);
  ASSERT_EQ(fixed.anomalies().size(), 1u);
  EXPECT_EQ(fixed.anomalies()[0], (AnomalyRegion{500, 557}));
  EXPECT_EQ(summary.toggles_merged, 1u);
}

TEST(RelabelTest, OtherSeriesFindingsIgnored) {
  LabeledSeries s("mine", Series(100, 0.0), {{10, 12}});
  const LabeledSeries fixed = ApplyFindings(
      s, {Finding(MislabelKind::kUnlabeledTwin, "other", {50, 52})});
  EXPECT_EQ(fixed.anomalies(), s.anomalies());
}

TEST(RelabelTest, DuplicatesAreCountedNotApplied) {
  LabeledSeries s("t", Series(100, 0.0), {{10, 12}});
  RelabelSummary summary;
  const LabeledSeries fixed = ApplyFindings(
      s, {Finding(MislabelKind::kDuplicateSeries, "t", {})}, &summary);
  EXPECT_EQ(fixed.anomalies(), s.anomalies());
  EXPECT_EQ(summary.findings_ignored, 1u);
}

TEST(RelabelTest, EndToEndNasaG1ReevaluationFlipsTheVerdict) {
  // The paper's Fig 9 thought experiment, run for real: a detector
  // that finds all three frozen segments looks bad against the
  // original labels and excellent against audited labels.
  const NasaArchive archive = GenerateNasaArchive();
  const LabeledSeries* g1 = archive.FindChannel("G-1");
  ASSERT_NE(g1, nullptr);

  // "Detector" output: flags exactly the three frozen segments.
  std::vector<double> scores(g1->length(), 0.0);
  const AnomalyRegion labeled = g1->anomalies().front();
  for (std::size_t i = labeled.begin; i < labeled.end; ++i) scores[i] = 1.0;
  for (std::size_t planted : archive.g1_unlabeled_freezes) {
    for (std::size_t i = planted; i < planted + 120; ++i) scores[i] = 1.0;
  }

  Result<BestF1> before = BestF1OverThresholds(g1->BinaryLabels(), scores);
  ASSERT_TRUE(before.ok());

  const auto findings = FindUnlabeledTwins(*g1);
  RelabelSummary summary;
  const LabeledSeries fixed = ApplyFindings(*g1, findings, &summary);
  EXPECT_EQ(summary.twins_added, 2u);
  Result<BestF1> after = BestF1OverThresholds(fixed.BinaryLabels(), scores);
  ASSERT_TRUE(after.ok());

  EXPECT_LT(before->f1, 0.55);        // punished for real discoveries
  EXPECT_GT(after->f1, 0.9);          // vindicated by audited labels
}

}  // namespace
}  // namespace tsad
