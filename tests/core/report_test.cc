#include "core/report.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datasets/generators.h"

namespace tsad {
namespace {

BenchmarkDataset FlawedMiniDataset() {
  Rng master(1);
  BenchmarkDataset d;
  d.name = "mini";
  for (uint64_t i = 0; i < 4; ++i) {
    Rng rng = master.Fork(i);
    Series x = GaussianNoise(600, 1.0, rng);
    const AnomalyRegion r = InjectSpike(x, 560, 25.0);
    d.series.emplace_back("s" + std::to_string(i), std::move(x),
                          std::vector<AnomalyRegion>{r});
  }
  d.series.push_back(d.series.front());  // duplicate pair
  return d;
}

TEST(SparklineTest, WidthAndLevels) {
  const std::string line = AsciiSparkline({0, 0, 0, 0, 10, 0, 0, 0}, 8);
  EXPECT_EQ(line.size(), 8u);
  EXPECT_NE(line.find('#'), std::string::npos);  // the peak
  EXPECT_NE(line.find(' '), std::string::npos);  // the floor
}

TEST(SparklineTest, DegenerateInputs) {
  EXPECT_TRUE(AsciiSparkline({}, 10).empty());
  EXPECT_TRUE(AsciiSparkline({1, 2}, 0).empty());
  const std::string flat = AsciiSparkline(Series(100, 3.0), 10);
  EXPECT_EQ(flat.size(), 10u);
}

TEST(ReportTest, ContainsEverySection) {
  const BenchmarkDataset dataset = FlawedMiniDataset();
  AuditConfig config;
  config.run_twin_search = false;
  const BenchmarkAudit audit = AuditBenchmark(dataset, config);
  const std::string md = RenderAuditReport(audit, dataset);

  EXPECT_NE(md.find("# Benchmark audit: mini"), std::string::npos);
  EXPECT_NE(md.find("IRRETRIEVABLY FLAWED"), std::string::npos);
  EXPECT_NE(md.find("## Triviality"), std::string::npos);
  EXPECT_NE(md.find("## Anomaly density"), std::string::npos);
  EXPECT_NE(md.find("## Ground-truth findings"), std::string::npos);
  EXPECT_NE(md.find("## Run-to-failure bias"), std::string::npos);
  // The solving one-liners are listed in backticks.
  EXPECT_NE(md.find("abs(diff(TS))"), std::string::npos);
  // The duplicate finding puts its series in the flagged panels.
  EXPECT_NE(md.find("### s0"), std::string::npos);
  EXPECT_NE(md.find("<- labels"), std::string::npos);
}

TEST(ReportTest, CleanAuditRendersWithoutPanels) {
  Rng rng(9);
  BenchmarkDataset d;
  d.name = "clean";
  Series x = GaussianNoise(600, 1.0, rng);
  d.series.emplace_back("quiet", std::move(x),
                        std::vector<AnomalyRegion>{{200, 201}});
  AuditConfig config;
  config.run_twin_search = false;
  const BenchmarkAudit audit = AuditBenchmark(d, config);
  const std::string md = RenderAuditReport(audit, d);
  EXPECT_NE(md.find("no flaw found"), std::string::npos);
  EXPECT_EQ(md.find("### quiet"), std::string::npos);  // nothing flagged
}

TEST(ReportTest, WritesToFile) {
  const BenchmarkDataset dataset = FlawedMiniDataset();
  AuditConfig config;
  config.run_twin_search = false;
  const BenchmarkAudit audit = AuditBenchmark(dataset, config);
  const std::string path =
      (std::filesystem::temp_directory_path() / "tsad_report_test.md")
          .string();
  ASSERT_TRUE(WriteAuditReport(audit, dataset, path).ok());
  std::ifstream in(path);
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_EQ(first_line, "# Benchmark audit: mini");
  std::remove(path.c_str());
}

TEST(ReportTest, WriteToBadPathIsIOError) {
  const BenchmarkDataset dataset = FlawedMiniDataset();
  AuditConfig config;
  config.run_twin_search = false;
  const BenchmarkAudit audit = AuditBenchmark(dataset, config);
  EXPECT_EQ(
      WriteAuditReport(audit, dataset, "/nonexistent/dir/report.md").code(),
      StatusCode::kIOError);
}

}  // namespace
}  // namespace tsad
