#include "datasets/gait.h"

#include <gtest/gtest.h>

#include "common/stats.h"
#include "core/ucr_archive.h"

namespace tsad {
namespace {

TEST(GaitTest, UcrContractAndNameEncoding) {
  const GaitData data = GenerateGaitData();
  EXPECT_TRUE(data.series.Validate().ok());
  ASSERT_EQ(data.series.anomalies().size(), 1u);
  EXPECT_TRUE(ValidateUcrDataset(data.series).ok());
  Result<UcrName> name = ParseUcrName(data.series.name());
  ASSERT_TRUE(name.ok()) << name.status().ToString();
  EXPECT_EQ(name->base, "park3m");
  EXPECT_EQ(name->train_length, data.series.train_length());
  EXPECT_EQ(name->anomaly_begin, data.series.anomalies().front().begin);
}

TEST(GaitTest, AnomalyIsInTheTestSpan) {
  const GaitData data = GenerateGaitData();
  EXPECT_GE(data.series.anomalies().front().begin,
            data.series.train_length());
}

TEST(GaitTest, SwappedCycleIsWeaker) {
  // Fig 12: the left-foot cycle is "tentative and weak" — its peak
  // force is clearly below a right-foot cycle's.
  GaitConfig config;
  const GaitData data = GenerateGaitData(config);
  const AnomalyRegion r = data.series.anomalies().front();
  const Series& x = data.series.values();
  const Series anomaly_cycle(x.begin() + static_cast<long>(r.begin),
                             x.begin() + static_cast<long>(r.end));
  // A normal cycle right before the anomaly.
  const Series normal_cycle(
      x.begin() + static_cast<long>(r.begin - kGaitCycleLength),
      x.begin() + static_cast<long>(r.begin));
  EXPECT_LT(Max(anomaly_cycle), 0.8 * Max(normal_cycle));
}

TEST(GaitTest, TurnaroundsAppearInTrainAndTest) {
  // §3.2: "we took pains to ensure that both the training and test data
  // have examples of this behavior."
  GaitConfig config;
  EXPECT_LT(kGaitTurnaroundEvery, config.train_cycles);
  EXPECT_LT(kGaitTurnaroundEvery,
            config.num_cycles - config.train_cycles);
}

TEST(GaitTest, Deterministic) {
  EXPECT_EQ(GenerateGaitData().series.values(),
            GenerateGaitData().series.values());
  GaitConfig other;
  other.seed = 999;
  EXPECT_NE(GenerateGaitData(other).series.values(),
            GenerateGaitData().series.values());
}

TEST(GaitTest, AnomalyAvoidsRegularTurnarounds) {
  const GaitData data = GenerateGaitData();
  EXPECT_GE(data.anomaly_cycle % kGaitTurnaroundEvery, 2u);
}

}  // namespace
}  // namespace tsad
