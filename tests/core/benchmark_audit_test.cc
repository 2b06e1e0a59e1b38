#include "core/benchmark_audit.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datasets/generators.h"
#include "datasets/yahoo.h"

namespace tsad {
namespace {

TEST(BenchmarkAuditTest, FlawedDatasetGetsTheVerdict) {
  // A miniature flawed benchmark: trivial spikes + a planted duplicate
  // + end-loaded anomalies.
  Rng master(1);
  BenchmarkDataset d;
  d.name = "flawed-mini";
  for (uint64_t i = 0; i < 6; ++i) {
    Rng rng = master.Fork(i);
    Series x = GaussianNoise(600, 1.0, rng);
    const AnomalyRegion r = InjectSpike(x, 560 + i, 25.0);
    d.series.emplace_back("s" + std::to_string(i), std::move(x),
                          std::vector<AnomalyRegion>{r});
  }
  d.series.push_back(d.series.front());  // duplicate
  AuditConfig config;
  config.run_twin_search = false;  // keep the test fast
  const BenchmarkAudit audit = AuditBenchmark(d, config);
  EXPECT_TRUE(audit.irretrievably_flawed);
  EXPECT_GE(audit.verdict_reasons.size(), 2u);  // trivial + duplicate at least
  EXPECT_EQ(audit.triviality.solved, 7u);
}

TEST(BenchmarkAuditTest, CleanDatasetPasses) {
  // Hidden anomalies, uniform placement, no label games.
  Rng master(2);
  BenchmarkDataset d;
  d.name = "clean-mini";
  for (uint64_t i = 0; i < 6; ++i) {
    Rng rng = master.Fork(100 + i);
    Series x = GaussianNoise(600, 1.0, rng);
    const std::size_t pos = 80 + i * 90;
    d.series.emplace_back("s" + std::to_string(i), std::move(x),
                          std::vector<AnomalyRegion>{{pos, pos + 1}});
  }
  AuditConfig config;
  config.run_twin_search = false;
  const BenchmarkAudit audit = AuditBenchmark(d, config);
  EXPECT_FALSE(audit.irretrievably_flawed) << FormatAudit(audit);
}

TEST(BenchmarkAuditTest, FormatMentionsEverySection) {
  Rng rng(3);
  BenchmarkDataset d;
  d.name = "fmt";
  Series x = GaussianNoise(400, 1.0, rng);
  const AnomalyRegion r = InjectSpike(x, 350, 20.0);
  d.series.emplace_back("s", std::move(x), std::vector<AnomalyRegion>{r});
  AuditConfig config;
  config.run_twin_search = false;
  const std::string text = FormatAudit(AuditBenchmark(d, config));
  EXPECT_NE(text.find("Triviality"), std::string::npos);
  EXPECT_NE(text.find("Density"), std::string::npos);
  EXPECT_NE(text.find("Mislabels"), std::string::npos);
  EXPECT_NE(text.find("Run-to-failure"), std::string::npos);
  EXPECT_NE(text.find("Verdict"), std::string::npos);
}

TEST(BenchmarkAuditTest, SimulatedYahooA1IsIrretrievablyFlawed) {
  // The paper's §2.6 headline, end to end.
  const YahooArchive archive = GenerateYahooArchive();
  AuditConfig config;
  config.run_twin_search = false;  // twin search tested elsewhere
  const BenchmarkAudit audit = AuditBenchmark(archive.a1, config);
  EXPECT_TRUE(audit.irretrievably_flawed);
}

}  // namespace
}  // namespace tsad
