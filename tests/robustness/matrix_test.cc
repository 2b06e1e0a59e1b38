#include "robustness/matrix.h"

#include <memory>

#include <gtest/gtest.h>

#include "tsad.h"

namespace tsad {
namespace {

LabeledSeries SmallFixture() {
  Rng rng(21);
  Series x = Mix({Sinusoid(1200, 60.0, 1.0, 0.0),
                  GaussianNoise(1200, 0.1, rng)});
  const AnomalyRegion anomaly = InjectSmoothHump(x, 900, 40, 1.5);
  return LabeledSeries("matrix-fixture", std::move(x), {anomaly}, 400);
}

TEST(RobustnessMatrixTest, DefaultMatrixCoversEveryFault) {
  constexpr double kSeverities[] = {0.05, 0.1, 0.2};
  const std::vector<RobustnessCase> cases = DefaultFaultMatrix();
  ASSERT_EQ(cases.size(), AllFaultTypes().size() * 3);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(cases[i].fault, AllFaultTypes()[i / 3]);
    EXPECT_EQ(cases[i].severity, kSeverities[i % 3]);
  }
}

TEST(RobustnessMatrixTest, CellsCoverDetectorsTimesCases) {
  const LabeledSeries series = SmallFixture();
  Result<std::unique_ptr<AnomalyDetector>> a = MakeDetector("zscore:w=32");
  Result<std::unique_ptr<AnomalyDetector>> b =
      MakeDetector("resilient:zscore:w=32");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  const std::vector<RobustnessCell> cells =
      RunRobustnessMatrix(series, {a->get(), b->get()});
  const std::size_t num_cases = DefaultFaultMatrix().size();
  ASSERT_EQ(cells.size(), 2 * num_cases);
  for (const RobustnessCell& cell : cells) {
    EXPECT_FALSE(cell.detector.empty());
  }
  // The resilient wrapper survives every cell, the missing-data faults
  // included.
  for (std::size_t i = num_cases; i < cells.size(); ++i) {
    EXPECT_TRUE(cells[i].survived) << FaultTypeName(cells[i].fault) << " "
                                   << cells[i].severity;
  }
}

TEST(RobustnessMatrixTest, DeterministicUnderFixedSeed) {
  const LabeledSeries series = SmallFixture();
  Result<std::unique_ptr<AnomalyDetector>> d =
      MakeDetector("resilient:zscore:w=32");
  ASSERT_TRUE(d.ok());

  RobustnessConfig config;
  config.seed = 5;
  const std::vector<RobustnessCell> first =
      RunRobustnessMatrix(series, {d->get()}, config);
  const std::vector<RobustnessCell> second =
      RunRobustnessMatrix(series, {d->get()}, config);
  ASSERT_EQ(first.size(), DefaultFaultMatrix().size());
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].survived, second[i].survived) << i;
    EXPECT_EQ(first[i].score_correlation, second[i].score_correlation) << i;
    EXPECT_EQ(first[i].peak_drift, second[i].peak_drift) << i;
  }
}

TEST(RobustnessMatrixTest, TableMentionsEveryDetectorAndFault) {
  const LabeledSeries series = SmallFixture();
  Result<std::unique_ptr<AnomalyDetector>> d =
      MakeDetector("resilient:zscore:w=32");
  ASSERT_TRUE(d.ok());

  const std::string table =
      FormatRobustnessTable(RunRobustnessMatrix(series, {d->get()}));
  EXPECT_NE(table.find("resilient(MovingZScore[w=32])"), std::string::npos);
  for (FaultType fault : AllFaultTypes()) {
    EXPECT_NE(table.find(std::string(FaultTypeName(fault))), std::string::npos)
        << FaultTypeName(fault);
  }
}

// Peaks at one fixed index, whatever the input.
class FixedPeakDetector : public AnomalyDetector {
 public:
  explicit FixedPeakDetector(std::size_t peak) : peak_(peak) {}
  std::string_view name() const override { return "fixed-peak"; }
  using AnomalyDetector::Score;
  Result<std::vector<double>> Score(
      const Series& series, std::size_t /*train_length*/) const override {
    std::vector<double> scores(series.size(), 0.0);
    if (peak_ < scores.size()) scores[peak_] = 1.0;
    return scores;
  }

 private:
  std::size_t peak_;
};

TEST(RobustnessMatrixTest, PeakColumnUsesTheUcrSlopOfLongLabels) {
  // The archive's slop is max(100, region length): a peak 300 points
  // before a 500-point label is a correct UCR answer, so every cell
  // must score it a hit.
  Rng rng(22);
  LabeledSeries series("long-label", GaussianNoise(3000, 1.0, rng),
                       {{2000, 2500}}, 500);
  ASSERT_TRUE(UcrCorrect(series.anomalies().front(), 1700));
  const FixedPeakDetector detector(1700);
  const std::vector<RobustnessCell> cells =
      RunRobustnessMatrix(series, {&detector});
  ASSERT_EQ(cells.size(), DefaultFaultMatrix().size());
  for (const RobustnessCell& cell : cells) {
    SCOPED_TRACE(std::string(FaultTypeName(cell.fault)) + " " +
                 std::to_string(cell.severity));
    EXPECT_TRUE(cell.survived);
    EXPECT_TRUE(cell.peak_correct);
  }
}

}  // namespace
}  // namespace tsad
