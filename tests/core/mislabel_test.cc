#include "core/mislabel.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datasets/generators.h"
#include "datasets/nasa.h"
#include "datasets/yahoo.h"

namespace tsad {
namespace {

// A periodic series with two identical planted dropouts, only the
// first labeled — the Fig 5 pathology in miniature.
LabeledSeries TwinDropoutSeries() {
  Rng rng(1);
  Series x = Mix({Sinusoid(2000, 40.0, 1.0, 0.0),
                  GaussianNoise(2000, 0.02, rng)});
  const AnomalyRegion labeled = InjectDropout(x, 600, 1, -5.0);
  InjectDropout(x, 1400, 1, -5.0);  // unlabeled twin
  return LabeledSeries("twins", std::move(x), {labeled});
}

TEST(FindUnlabeledTwinsTest, FindsTheFig5Twin) {
  const LabeledSeries s = TwinDropoutSeries();
  const auto findings = FindUnlabeledTwins(s);
  ASSERT_GE(findings.size(), 1u);
  bool found = false;
  for (const MislabelFinding& f : findings) {
    EXPECT_EQ(f.kind, MislabelKind::kUnlabeledTwin);
    if (f.position + 20 > 1400 && f.position < 1410) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(FindUnlabeledTwinsTest, CleanLabelsYieldNoTwins) {
  Rng rng(2);
  Series x = Mix({Sinusoid(2000, 40.0, 1.0, 0.0),
                  GaussianNoise(2000, 0.02, rng)});
  const AnomalyRegion labeled = InjectDropout(x, 700, 1, -5.0);  // unique
  LabeledSeries s("clean", std::move(x), {labeled});
  EXPECT_TRUE(FindUnlabeledTwins(s).empty());
}

TEST(FindUnlabeledTwinsTest, FindsNasaFig9FrozenTwins) {
  const NasaArchive archive = GenerateNasaArchive();
  const LabeledSeries* g1 = archive.FindChannel("G-1");
  ASSERT_NE(g1, nullptr);
  const auto findings = FindUnlabeledTwins(*g1);
  // Both unlabeled freezes should be rediscovered.
  std::size_t rediscovered = 0;
  for (std::size_t planted : archive.g1_unlabeled_freezes) {
    for (const MislabelFinding& f : findings) {
      if (f.position + 150 > planted && f.position < planted + 150) {
        ++rediscovered;
        break;
      }
    }
  }
  EXPECT_EQ(rediscovered, 2u);
}

// On a noisy ramp every 16-point window looks alike, so the median
// distance is small (1.21 here) and 0.25 x median (0.30) sits under
// the identity cap 0.18 x sqrt(32) (1.02): the ratio decides. A near
// copy of the labeled window (distance 0.10) is a twin; a looser copy
// (0.47, 0.38 x median) is not.
TEST(FindUnlabeledTwinsTest, MedianRatioBindsOnANoisyRamp) {
  Rng rng(1);
  Series x = Mix({LinearTrend(1200, 0.0, 0.01), GaussianNoise(1200, 0.01, rng)});
  for (std::size_t j = 0; j < 16; ++j) {
    x[300 + j] = x[600 + j] - 3.0 + rng.Gaussian(0.0, 0.001);
    x[900 + j] = x[600 + j] + 3.0 + rng.Gaussian(0.0, 0.004);
  }
  const LabeledSeries s("ramp", std::move(x), {{600, 616}});
  const auto findings = FindUnlabeledTwins(s);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, MislabelKind::kUnlabeledTwin);
  EXPECT_EQ(findings[0].position, 300u);
}

// Z-normalized distances do not depend on a series' level, so a shift
// must leave every twin where it was. Each profile entry's covariance
// is centered; only the window stats' prefix-sum rounding grows with
// the level, and it moves no distance here by 1e-3 (5.8e-4 at +1e7).
TEST(FindUnlabeledTwinsTest, ShiftedSeriesKeepTheirTwins) {
  const YahooArchive archive = GenerateYahooArchive();
  std::size_t twins = 0;
  for (const LabeledSeries& s : archive.a1.series) {
    const std::vector<MislabelFinding> base = FindUnlabeledTwins(s);
    twins += base.size();
    for (const double offset : {1e6, 1e7}) {
      Series x = s.values();
      for (double& v : x) v += offset;
      const LabeledSeries shifted(s.name(), std::move(x), s.anomalies(),
                                  s.train_length());
      const std::vector<MislabelFinding> found = FindUnlabeledTwins(shifted);
      EXPECT_EQ(found.size(), base.size()) << s.name() << " +" << offset;
      for (std::size_t k = 0; k < std::min(found.size(), base.size()); ++k) {
        EXPECT_EQ(found[k].position, base[k].position)
            << s.name() << " +" << offset << " twin " << k;
        EXPECT_NEAR(found[k].distance, base[k].distance, 1e-3)
            << s.name() << " +" << offset << " twin " << k;
      }
    }
  }
  EXPECT_GT(twins, 0u);
}

TEST(AuditConstantRunsTest, FindsHalfLabeledRun) {
  Series x(500);
  for (std::size_t i = 0; i < 500; ++i) {
    x[i] = std::sin(static_cast<double>(i) * 0.1);
  }
  for (std::size_t i = 200; i < 260; ++i) x[i] = x[200];  // 60-pt freeze
  // Label only the first half of the flat line (Fig 4).
  LabeledSeries s("fig4", std::move(x), {{200, 230}});
  const auto findings = AuditConstantRuns(s);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, MislabelKind::kHalfLabeledConstant);
  EXPECT_EQ(findings[0].position, 230u);  // first unlabeled flat point
  EXPECT_EQ(findings[0].proposed.begin, 200u);
  EXPECT_GE(findings[0].proposed.end, 259u);
}

TEST(AuditConstantRunsTest, FullyLabeledRunIsConsistent) {
  Series x(500);
  for (std::size_t i = 0; i < 500; ++i) {
    x[i] = std::sin(static_cast<double>(i) * 0.1);
  }
  for (std::size_t i = 200; i < 260; ++i) x[i] = x[200];
  LabeledSeries s("ok", std::move(x), {{200, 260}});
  EXPECT_TRUE(AuditConstantRuns(s).empty());
}

TEST(AuditConstantRunsTest, UnlabeledRunIsNotAMislabelPerSe) {
  // An entirely unlabeled flat run is a potential missed anomaly but
  // not a half-label inconsistency; the twin audit covers that case.
  Series x(500);
  for (std::size_t i = 0; i < 500; ++i) {
    x[i] = std::sin(static_cast<double>(i) * 0.1);
  }
  for (std::size_t i = 200; i < 260; ++i) x[i] = x[200];
  LabeledSeries s("none", std::move(x), {{400, 402}});
  EXPECT_TRUE(AuditConstantRuns(s).empty());
}

TEST(AuditLabelTogglingTest, FindsFig7Toggling) {
  std::vector<AnomalyRegion> toggles;
  for (std::size_t off = 0; off < 60; off += 6) {
    toggles.push_back({1000 + off, 1000 + off + 3});
  }
  LabeledSeries s("fig7", Series(2000, 0.0), toggles);
  const auto findings = AuditLabelToggling(s);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, MislabelKind::kLabelToggling);
  EXPECT_EQ(findings[0].proposed.begin, 1000u);
  EXPECT_EQ(findings[0].proposed.end, 1057u);
}

TEST(AuditLabelTogglingTest, WellSeparatedRegionsAreFine) {
  LabeledSeries s("ok", Series(2000, 0.0),
                  {{100, 103}, {500, 503}, {900, 903}, {1300, 1303}});
  EXPECT_TRUE(AuditLabelToggling(s).empty());
}

TEST(FindDuplicateSeriesTest, CatchesTheYahooPair) {
  const YahooArchive archive = GenerateYahooArchive();
  const auto findings = FindDuplicateSeries(archive.a1);
  bool found = false;
  for (const MislabelFinding& f : findings) {
    if (f.detail.find("A1-Real13") != std::string::npos &&
        f.detail.find("A1-Real15") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(FindDuplicateSeriesTest, DistinctSeriesPass) {
  Rng rng(3);
  BenchmarkDataset d;
  for (int i = 0; i < 4; ++i) {
    d.series.emplace_back("s" + std::to_string(i),
                          GaussianNoise(500, 1.0, rng),
                          std::vector<AnomalyRegion>{});
  }
  EXPECT_TRUE(FindDuplicateSeries(d).empty());
}

TEST(AuditDatasetLabelsTest, FindsAllPlantedYahooDefects) {
  // End-to-end: the auditor rediscovers what the generator planted.
  const YahooArchive archive = GenerateYahooArchive();
  const auto findings = AuditDatasetLabels(archive.a1);

  auto has = [&](MislabelKind kind, const std::string& series) {
    for (const MislabelFinding& f : findings) {
      if (f.kind == kind && f.series_name == series) return true;
    }
    return false;
  };
  EXPECT_TRUE(has(MislabelKind::kHalfLabeledConstant, "A1-Real32"));
  EXPECT_TRUE(has(MislabelKind::kUnlabeledTwin, "A1-Real46"));
  EXPECT_TRUE(has(MislabelKind::kLabelToggling, "A1-Real67"));
  EXPECT_TRUE(has(MislabelKind::kDuplicateSeries, "A1-Real13"));
}

TEST(MislabelKindNameTest, AllNamed) {
  EXPECT_EQ(MislabelKindName(MislabelKind::kUnlabeledTwin), "unlabeled-twin");
  EXPECT_EQ(MislabelKindName(MislabelKind::kDuplicateSeries),
            "duplicate-series");
}

}  // namespace
}  // namespace tsad
