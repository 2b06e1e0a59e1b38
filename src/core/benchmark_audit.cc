#include "core/benchmark_audit.h"

#include <sstream>

namespace tsad {

BenchmarkAudit AuditBenchmark(const BenchmarkDataset& dataset,
                              const AuditConfig& config) {
  // Fractions above which triviality and run-to-failure placement each
  // contribute to the verdict.
  constexpr double kTrivialityVerdictThreshold = 0.5;
  constexpr double kRunToFailureQuintileThreshold = 0.4;
  BenchmarkAudit audit;
  audit.dataset_name = dataset.name;
  audit.triviality = AnalyzeTriviality({&dataset});
  audit.density = CensusDensity(dataset);
  audit.mislabels = AuditDatasetLabels(dataset, config.run_twin_search);
  audit.run_to_failure = AnalyzeRunToFailure(dataset);

  // Verdict assembly.
  const double trivial_fraction =
      audit.triviality.total == 0
          ? 0.0
          : static_cast<double>(audit.triviality.solved) /
                static_cast<double>(audit.triviality.total);
  if (trivial_fraction > kTrivialityVerdictThreshold) {
    std::ostringstream r;
    r << "triviality: " << audit.triviality.solved << "/"
      << audit.triviality.total
      << " series solvable with a one-liner";
    audit.verdict_reasons.push_back(r.str());
  }
  if (!audit.mislabels.empty()) {
    audit.verdict_reasons.push_back(
        "mislabeled ground truth: " + std::to_string(audit.mislabels.size()) +
        " finding(s)");
  }
  const std::size_t density_flaws = audit.density.over_third +
                                    audit.density.many_regions +
                                    audit.density.adjacent;
  if (density_flaws > 0) {
    audit.verdict_reasons.push_back(
        "unrealistic density: " + std::to_string(density_flaws) +
        " series with density flaw(s)");
  }
  if (audit.run_to_failure.fraction_in_last_quintile >
      kRunToFailureQuintileThreshold) {
    std::ostringstream r;
    r << "run-to-failure bias: "
      << static_cast<int>(100.0 *
                          audit.run_to_failure.fraction_in_last_quintile)
      << "% of last anomalies fall in the final quintile";
    audit.verdict_reasons.push_back(r.str());
  }
  audit.irretrievably_flawed = !audit.verdict_reasons.empty();
  return audit;
}

std::string FormatAudit(const BenchmarkAudit& audit) {
  std::ostringstream out;
  out << "=== Benchmark audit: " << audit.dataset_name << " ===\n";
  out << "Triviality: " << audit.triviality.solved << "/"
      << audit.triviality.total << " ("
      << audit.triviality.solved_percent() << "%) one-liner solvable\n";
  out << "Density: " << audit.density.over_half
      << " series >1/2 contiguous, " << audit.density.over_third
      << " >1/3, " << audit.density.many_regions << " with >=10 regions, "
      << audit.density.adjacent << " with adjacent regions, "
      << audit.density.single_anomaly << " with the ideal single anomaly\n";
  out << "Mislabels: " << audit.mislabels.size() << " finding(s)\n";
  for (const MislabelFinding& f : audit.mislabels) {
    out << "  [" << MislabelKindName(f.kind) << "] " << f.series_name << ": "
        << f.detail << "\n";
  }
  out << "Run-to-failure: mean last-anomaly position "
      << audit.run_to_failure.mean_position << ", "
      << 100.0 * audit.run_to_failure.fraction_in_last_quintile
      << "% in last quintile, naive last-point hit rate "
      << 100.0 * audit.run_to_failure.last_point_hit_rate << "%\n";
  out << "Verdict: "
      << (audit.irretrievably_flawed ? "IRRETRIEVABLY FLAWED" : "no flaw found")
      << "\n";
  for (const std::string& reason : audit.verdict_reasons) {
    out << "  - " << reason << "\n";
  }
  return out.str();
}

}  // namespace tsad
