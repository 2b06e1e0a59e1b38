// Reproduces §2.6 ("Summary of Benchmark Flaws"): the full four-flaw
// audit over every simulated archive, ending in the paper's verdict
// that the classic benchmarks are irretrievably flawed — and §4.1's
// recommendation that they be abandoned.
//
// Also §2.6's scoring thought experiment: a detector with a perfect
// point-adjusted F1 on a flawed dataset versus what honest scoring says.

#include <cstdio>

#include "bench_util.h"
#include "core/benchmark_audit.h"
#include "datasets/nasa.h"
#include "datasets/numenta.h"
#include "datasets/yahoo.h"
#include "detectors/naive.h"
#include "scoring/point_adjust.h"

int main() {
  using namespace tsad;
  bench::PrintHeader("§2.6 -- Full benchmark audits");

  AuditConfig config;
  // Twin search is quadratic-ish in anomaly count; keep the summary
  // bench snappy, the dedicated fig4-7 bench runs the full version.
  config.run_twin_search = false;

  const YahooArchive yahoo = GenerateYahooArchive();
  for (const BenchmarkDataset* d : yahoo.all()) {
    std::printf("%s\n", FormatAudit(AuditBenchmark(*d, config)).c_str());
  }
  const NasaArchive nasa = GenerateNasaArchive();
  std::printf("%s\n",
              FormatAudit(AuditBenchmark(nasa.channels, config)).c_str());
  std::printf("%s\n",
              FormatAudit(AuditBenchmark(GenerateNumentaDataset(), config))
                  .c_str());

  // §2.6's algorithm-A/B/C thought experiment, concretely: the naive
  // last-point detector under point-adjusted scoring on a
  // run-to-failure archive.
  bench::PrintHeader("§2.6 -- 'Should we be impressed?'");
  LastPointDetector last_point;
  double pa_f1_sum = 0.0, plain_f1_sum = 0.0;
  std::size_t counted = 0;
  for (const LabeledSeries& s : yahoo.a1.series) {
    Result<std::vector<double>> scores = last_point.Score(s);
    if (!scores.ok()) continue;
    const auto truth = s.BinaryLabels();
    Result<BestF1> plain = BestF1OverThresholds(truth, *scores);
    Result<BestF1> adjusted = BestPointAdjustedF1(truth, *scores);
    if (plain.ok() && adjusted.ok()) {
      plain_f1_sum += plain->f1;
      pa_f1_sum += adjusted->f1;
      ++counted;
    }
  }
  std::printf("Naive LAST-POINT detector on Yahoo A1 (%zu series):\n",
              counted);
  std::printf("  mean point-wise best F1:      %.3f\n",
              plain_f1_sum / static_cast<double>(counted));
  std::printf("  mean point-adjusted best F1:  %.3f\n",
              pa_f1_sum / static_cast<double>(counted));
  std::printf("\n=> 'there is simply no level of performance that would "
              "suggest the utility of a proposed algorithm.'\n");
  return 0;
}
