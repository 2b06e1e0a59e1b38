#include "datasets/physio.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/stats.h"

namespace tsad {
namespace {

TEST(EcgTest, OneMinuteAt200HzIs12000Points) {
  const LabeledSeries ecg = GenerateEcgWithPvc();
  EXPECT_EQ(ecg.length(), 12000u);  // the Fig 13 setup
  EXPECT_TRUE(ecg.Validate().ok());
  EXPECT_EQ(ecg.anomalies().size(), 1u);
}

TEST(EcgTest, HasBeatPeriodicity) {
  const LabeledSeries ecg = GenerateEcgWithPvc();
  // 72 bpm at 200 Hz => beat period ~167 samples.
  double best = 0.0;
  std::size_t best_lag = 0;
  for (std::size_t lag = 140; lag <= 190; ++lag) {
    const double r = Autocorrelation(ecg.values(), lag);
    if (r > best) {
      best = r;
      best_lag = lag;
    }
  }
  EXPECT_GT(best, 0.4);
  EXPECT_NEAR(static_cast<double>(best_lag), 167.0, 15.0);
}

TEST(EcgTest, PvcRegionLooksDifferent) {
  const LabeledSeries ecg = GenerateEcgWithPvc();
  const AnomalyRegion pvc = ecg.anomalies().front();
  // The PVC has an inverted T / deep negative excursion: the region's
  // minimum is deeper than the typical beat minimum.
  const Series& x = ecg.values();
  double pvc_min = 1e9;
  for (std::size_t i = pvc.begin; i < pvc.end; ++i) {
    pvc_min = std::min(pvc_min, x[i]);
  }
  const Series normal(x.begin() + 1000, x.begin() + 3000);
  EXPECT_LT(pvc_min, 1.3 * Min(normal));
}

TEST(EcgTest, DeterministicPerSeed) {
  PhysioConfig a, b;
  a.seed = b.seed = 42;
  EXPECT_EQ(GenerateEcgWithPvc(a).values(), GenerateEcgWithPvc(b).values());
  b.seed = 43;
  EXPECT_NE(GenerateEcgWithPvc(a).values(), GenerateEcgWithPvc(b).values());
}

TEST(BidmcPairTest, UcrContractHolds) {
  const EcgPlethPair pair = GenerateBidmcPair();
  EXPECT_TRUE(pair.pleth.Validate().ok());
  EXPECT_EQ(pair.pleth.train_length(), 2500u);
  ASSERT_EQ(pair.pleth.anomalies().size(), 1u);
  EXPECT_GE(pair.pleth.anomalies().front().begin, 2500u);
  // Name encodes the split and the anomaly: UCR_Anomaly_BIDMC1_2500_b_e.
  EXPECT_EQ(pair.pleth.name().rfind("UCR_Anomaly_BIDMC1_2500_", 0), 0u);
}

TEST(BidmcPairTest, PlethLagsEcg) {
  // §3.1: "an ECG is an electrical signal, and the pleth signal is
  // mechanical... there is a slight lag."
  PhysioConfig config;
  const EcgPlethPair pair = GenerateBidmcPair(config);
  const std::size_t ecg_begin = pair.ecg.anomalies().front().begin;
  const std::size_t pleth_begin = pair.pleth.anomalies().front().begin;
  EXPECT_GT(pleth_begin, ecg_begin);
  EXPECT_NEAR(static_cast<double>(pleth_begin - ecg_begin),
              kPhysioPlethLagSec * kPhysioSampleRateHz, 5.0);
}

TEST(BidmcPairTest, PvcPulseIsWeak) {
  const EcgPlethPair pair = GenerateBidmcPair();
  const AnomalyRegion r = pair.pleth.anomalies().front();
  const Series& x = pair.pleth.values();
  double pvc_peak = -1e9;
  for (std::size_t i = r.begin; i < r.end && i < x.size(); ++i) {
    pvc_peak = std::max(pvc_peak, x[i]);
  }
  // Normal pulse peaks reach ~1.0; the PVC pulse only ~0.35.
  const Series normal(x.begin() + 3000, x.begin() + 5000);
  EXPECT_LT(pvc_peak, 0.75 * Max(normal));
}

TEST(BidmcPairTest, BothChannelsSameLength) {
  const EcgPlethPair pair = GenerateBidmcPair();
  EXPECT_EQ(pair.ecg.length(), pair.pleth.length());
}

}  // namespace
}  // namespace tsad
