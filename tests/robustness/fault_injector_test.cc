#include "robustness/fault_injector.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "tsad.h"

namespace tsad {
namespace {

Series CleanSine(std::size_t n, uint64_t seed) {
  Rng rng(seed);
  return Mix({Sinusoid(n, 64.0, 1.0, 0.0), GaussianNoise(n, 0.1, rng)});
}

// Bitwise equality that treats NaN == NaN (std::equal would not).
bool BitwiseEqual(const Series& a, const Series& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(FaultInjectorTest, DeterministicUnderFixedSeed) {
  const Series clean = CleanSine(1000, 1);
  for (FaultType type : AllFaultTypes()) {
    FaultInjector a(42);
    FaultInjector b(42);
    a.Add({type, 0.15});
    b.Add({type, 0.15});
    EXPECT_TRUE(BitwiseEqual(a.Apply(clean), b.Apply(clean)))
        << FaultTypeName(type);
  }
}

TEST(FaultInjectorTest, DifferentSeedsDiffer) {
  const Series clean = CleanSine(1000, 1);
  FaultInjector a(1);
  FaultInjector b(2);
  a.Add({FaultType::kNanMissing, 0.1});
  b.Add({FaultType::kNanMissing, 0.1});
  EXPECT_FALSE(BitwiseEqual(a.Apply(clean), b.Apply(clean)));
}

TEST(FaultInjectorTest, ZeroSeverityIsNoOp) {
  const Series clean = CleanSine(500, 2);
  FaultInjector injector(7);
  for (FaultType type : AllFaultTypes()) {
    injector.Add({type, 0.0});
  }
  EXPECT_TRUE(BitwiseEqual(injector.Apply(clean), clean));
}

TEST(FaultInjectorTest, NoFaultsIsIdentity) {
  const Series clean = CleanSine(100, 3);
  EXPECT_TRUE(BitwiseEqual(FaultInjector(7).Apply(clean), clean));
}

// Each fault's randomness is forked from the master seed by fault
// index, so appending a later fault never changes an earlier one's
// realization. Additive noise perturbs values but cannot un-NaN a
// point, so the NaN mask must be identical with or without it.
TEST(FaultInjectorTest, AppendingFaultKeepsEarlierRealization) {
  const Series clean = CleanSine(1000, 4);
  FaultInjector just_nan(9);
  just_nan.Add({FaultType::kNanMissing, 0.1});
  FaultInjector nan_then_noise(9);
  nan_then_noise.Add({FaultType::kNanMissing, 0.1})
      .Add({FaultType::kAdditiveNoise, 0.2});

  const Series a = just_nan.Apply(clean);
  const Series b = nan_then_noise.Apply(clean);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::isnan(a[i]), std::isnan(b[i])) << i;
  }
}

TEST(FaultInjectorTest, NanMissingHitsRoughlySeverityFraction) {
  const Series clean = CleanSine(2000, 5);
  FaultInjector injector(11);
  injector.Add({FaultType::kNanMissing, 0.2});
  const MissingScan scan = ScanForMissing(injector.Apply(clean));
  EXPECT_EQ(scan.num_sentinel, 0u);
  EXPECT_GT(scan.num_nan, 300u);
  EXPECT_LT(scan.num_nan, 500u);
}

TEST(FaultInjectorTest, SentinelMissingWritesExactMarker) {
  const Series clean = CleanSine(1000, 6);
  FaultInjector injector(12);
  injector.Add({FaultType::kSentinelMissing, 0.1});
  const Series dirty = injector.Apply(clean);
  std::size_t markers = 0;
  for (double v : dirty) {
    ASSERT_TRUE(std::isfinite(v));
    markers += v == -9999.0 ? 1 : 0;
  }
  EXPECT_GT(markers, 50u);
}

TEST(FaultInjectorTest, DropoutIsOneContiguousGap) {
  const Series clean = CleanSine(1000, 7);
  FaultInjector injector(13);
  injector.Add({FaultType::kDropout, 0.1});
  const Series dirty = injector.Apply(clean);

  std::size_t first = dirty.size(), last = 0, total = 0;
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    if (std::isnan(dirty[i])) {
      first = std::min(first, i);
      last = i;
      ++total;
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_EQ(total, last - first + 1) << "gap not contiguous";
  EXPECT_NEAR(static_cast<double>(total), 100.0, 2.0);
}

TEST(FaultInjectorTest, StuckAtFreezesARun) {
  const Series clean = CleanSine(1000, 8);
  FaultInjector injector(14);
  injector.Add({FaultType::kStuckAt, 0.1});
  const Series dirty = injector.Apply(clean);

  // All values stay finite and a run of ~100 identical values appears.
  std::size_t longest = 1, run = 1;
  for (std::size_t i = 1; i < dirty.size(); ++i) {
    ASSERT_TRUE(std::isfinite(dirty[i]));
    run = dirty[i] == dirty[i - 1] ? run + 1 : 1;
    longest = std::max(longest, run);
  }
  EXPECT_GE(longest, 90u);
}

TEST(FaultInjectorTest, ClippingOnlySaturates) {
  const Series clean = CleanSine(1000, 9);
  FaultInjector injector(15);
  injector.Add({FaultType::kClipping, 0.2});
  const Series dirty = injector.Apply(clean);

  double clean_min = clean[0], clean_max = clean[0];
  for (double v : clean) {
    clean_min = std::min(clean_min, v);
    clean_max = std::max(clean_max, v);
  }
  std::size_t changed = 0;
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    ASSERT_TRUE(std::isfinite(dirty[i]));
    EXPECT_GE(dirty[i], clean_min - 1e-12);
    EXPECT_LE(dirty[i], clean_max + 1e-12);
    changed += dirty[i] != clean[i] ? 1 : 0;
  }
  EXPECT_GT(changed, 0u);
}

TEST(FaultInjectorTest, QuantizationSnapsToGrid) {
  const Series clean = CleanSine(1000, 10);
  FaultInjector injector(16);
  injector.Add({FaultType::kQuantization, 0.5});
  const Series dirty = injector.Apply(clean);

  std::size_t distinct_pairs = 0;
  for (std::size_t i = 1; i < dirty.size(); ++i) {
    ASSERT_TRUE(std::isfinite(dirty[i]));
    distinct_pairs += dirty[i] != dirty[i - 1] ? 1 : 0;
  }
  std::size_t clean_distinct = 0;
  for (std::size_t i = 1; i < clean.size(); ++i) {
    clean_distinct += clean[i] != clean[i - 1] ? 1 : 0;
  }
  // A coarse grid collapses neighbors onto the same level far more
  // often than the continuous signal does.
  EXPECT_LT(distinct_pairs, clean_distinct);
}

TEST(FaultInjectorTest, SpikeBurstAddsLargeExcursions) {
  const Series clean = CleanSine(1000, 11);
  FaultInjector injector(17);
  injector.Add({FaultType::kSpikeBurst, 0.01});
  const Series dirty = injector.Apply(clean);

  std::size_t big = 0;
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    ASSERT_TRUE(std::isfinite(dirty[i]));
    big += std::fabs(dirty[i] - clean[i]) > 2.0 ? 1 : 0;
  }
  EXPECT_GT(big, 0u);
  EXPECT_LT(big, 100u);
}

TEST(FaultInjectorTest, LabeledSeriesKeepsGroundTruth) {
  Rng rng(12);
  Series x = GaussianNoise(600, 1.0, rng);
  const AnomalyRegion r = InjectSpike(x, 400, 15.0);
  const LabeledSeries clean("truth", std::move(x), {r}, 200);

  FaultInjector injector(18);
  injector.Add({FaultType::kNanMissing, 0.1});
  const LabeledSeries dirty = injector.Apply(clean);

  EXPECT_EQ(dirty.name(), clean.name());
  EXPECT_EQ(dirty.train_length(), clean.train_length());
  ASSERT_EQ(dirty.anomalies().size(), 1u);
  EXPECT_EQ(dirty.anomalies()[0], r);
  EXPECT_GT(ScanForMissing(dirty.values()).num_nan, 0u);
}

TEST(FaultInjectorTest, EmptyAndTinySeriesDoNotCrash) {
  for (std::size_t n : {0u, 1u, 2u}) {
    const Series clean(n, 1.0);
    FaultInjector injector(19);
    for (FaultType type : AllFaultTypes()) {
      injector.Add({type, 0.3});
    }
    const Series dirty = injector.Apply(clean);
    EXPECT_EQ(dirty.size(), n);
  }
}

// ---------------------------------------------------------------------
// Serving-path faults.

TEST(ServingFaultTest, ScheduleIsDeterministicPerSeedAndStream) {
  ServingFaultPlan plan;
  plan.detector_error_rate = 0.5;
  plan.deadline_storm_rate = 0.5;
  plan.horizon = 100;

  for (const char* id : {"stream-a", "stream-b", "stream-c"}) {
    ServingFaultState a(7, id, plan);
    ServingFaultState b(7, id, plan);
    EXPECT_EQ(a.detector_error_scheduled(), b.detector_error_scheduled());
    EXPECT_EQ(a.deadline_storm_scheduled(), b.deadline_storm_scheduled());
    for (std::size_t i = 0; i < plan.horizon; ++i) {
      EXPECT_EQ(a.Fire(i).has_value(), b.Fire(i).has_value()) << id << i;
    }
  }
}

TEST(ServingFaultTest, RatesScaleScheduledFraction) {
  ServingFaultPlan none;
  none.horizon = 50;
  ServingFaultPlan all;
  all.detector_error_rate = 1.0;
  all.horizon = 50;

  std::size_t scheduled = 0;
  for (int s = 0; s < 100; ++s) {
    const std::string id = "s" + std::to_string(s);
    EXPECT_FALSE(ServingFaultState(3, id, none).detector_error_scheduled());
    if (ServingFaultState(3, id, all).detector_error_scheduled()) ++scheduled;
  }
  EXPECT_EQ(scheduled, 100u);
}

TEST(ServingFaultTest, EachFaultFiresExactlyOnce) {
  ServingFaultPlan plan;
  plan.detector_error_rate = 1.0;
  plan.deadline_storm_rate = 1.0;
  plan.horizon = 40;
  ServingFaultState state(11, "once", plan);
  ASSERT_TRUE(state.detector_error_scheduled());

  std::size_t errors = 0, storms = 0;
  // Two sweeps over the horizon = the engine replaying the stream after
  // recovery: nothing may fire a second time.
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (std::size_t i = 0; i < plan.horizon; ++i) {
      const auto fired = state.Fire(i);
      if (!fired) continue;
      if (*fired == ServingFaultType::kDetectorError) ++errors;
      if (*fired == ServingFaultType::kDeadlineStorm) ++storms;
    }
  }
  EXPECT_EQ(errors, 1u);
  EXPECT_LE(storms, 1u);  // storm may collide off the horizon entirely
}

TEST(ChaosOnlineDetectorTest, FailsAtScheduledPointWithoutAdvancingInner) {
  ServingFaultPlan plan;
  plan.detector_error_rate = 1.0;
  plan.horizon = 60;
  // Find the scheduled index by probing a twin schedule.
  auto probe = std::make_shared<ServingFaultState>(5, "s", plan);
  std::size_t fault_at = plan.horizon;
  for (std::size_t i = 0; i < plan.horizon; ++i) {
    if (probe->Fire(i)) {
      fault_at = i;
      break;
    }
  }
  ASSERT_LT(fault_at, plan.horizon);

  auto inner = MakeOnlineDetector("zscore:w=8", 0);
  ASSERT_TRUE(inner.ok());
  ChaosOnlineDetector chaos(std::move(*inner),
                            std::make_shared<ServingFaultState>(5, "s", plan));
  std::vector<ScoredPoint> sink;
  for (std::size_t i = 0; i < fault_at; ++i) {
    ASSERT_TRUE(chaos.Observe(1.0, &sink).ok());
  }
  const Status failed = chaos.Observe(1.0, &sink);
  EXPECT_EQ(failed.code(), StatusCode::kInternal);
  EXPECT_NE(failed.message().find("chaos"), std::string::npos);
  // The fault fired BEFORE the inner detector consumed the point.
  EXPECT_EQ(chaos.observed(), fault_at);
  // The same point goes through on retry (fired-once semantics) and the
  // stream continues normally.
  EXPECT_TRUE(chaos.Observe(1.0, &sink).ok());
  EXPECT_EQ(chaos.observed(), fault_at + 1);
}

TEST(ChaosOnlineDetectorTest, SnapshotsInterchangeWithUndecoratedDetectors) {
  ServingFaultPlan plan;  // nothing scheduled
  auto inner = MakeOnlineDetector("zscore:w=8", 0);
  ASSERT_TRUE(inner.ok());
  ChaosOnlineDetector chaos(std::move(*inner),
                            std::make_shared<ServingFaultState>(1, "s", plan));
  std::vector<ScoredPoint> sink;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(chaos.Observe(0.1 * i, &sink).ok());
  }
  auto blob = chaos.Snapshot();
  ASSERT_TRUE(blob.ok());

  // Chaos blob restores into a plain adapter, and vice versa.
  auto plain = MakeOnlineDetector("zscore:w=8", 0);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE((*plain)->Restore(*blob).ok());
  EXPECT_EQ((*plain)->observed(), 30u);

  auto inner2 = MakeOnlineDetector("zscore:w=8", 0);
  ASSERT_TRUE(inner2.ok());
  ChaosOnlineDetector chaos2(
      std::move(*inner2), std::make_shared<ServingFaultState>(1, "s", plan));
  ASSERT_TRUE(chaos2.Restore(*blob).ok());
  EXPECT_EQ(chaos2.observed(), 30u);
}

TEST(CorruptBlobTest, DeterministicFlipsInPayloadOnly) {
  const std::string blob(64, '\x55');
  const std::string a = CorruptBlob(blob, 9);
  const std::string b = CorruptBlob(blob, 9);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, blob);
  ASSERT_EQ(a.size(), blob.size());
  // The leading length prefix is preserved for non-trivial blobs.
  EXPECT_EQ(a.substr(0, 8), blob.substr(0, 8));
  EXPECT_NE(CorruptBlob(blob, 10), a);  // seed changes the flips

  std::size_t flipped = 0;
  for (std::size_t i = 0; i < blob.size(); ++i) {
    if (a[i] != blob[i]) ++flipped;
  }
  EXPECT_GE(flipped, 1u);
  EXPECT_LE(flipped, 8u);
}

TEST(CorruptBlobTest, TinyBlobsStillChange) {
  for (std::size_t n : {1u, 2u, 8u, 16u}) {
    const std::string blob(n, '\x20');
    EXPECT_NE(CorruptBlob(blob, 3), blob) << n;
  }
  EXPECT_EQ(CorruptBlob("", 3), "");
}

}  // namespace
}  // namespace tsad
