// Archive-level audit orchestrator: runs all four flaw analyzers
// (triviality §2.2, density §2.3, mislabels §2.4, run-to-failure §2.5)
// over a benchmark and rolls the results into the paper's §2.6 verdict.

#ifndef TSAD_CORE_BENCHMARK_AUDIT_H_
#define TSAD_CORE_BENCHMARK_AUDIT_H_

#include <string>
#include <vector>

#include "common/series.h"
#include "core/density.h"
#include "core/mislabel.h"
#include "core/run_to_failure.h"
#include "core/triviality.h"

namespace tsad {

struct AuditConfig {
  /// The unlabeled-twin search, the audit's expensive step.
  bool run_twin_search = true;
};

struct BenchmarkAudit {
  std::string dataset_name;
  TrivialityReport triviality;       // single-dataset report
  DensityCensus density;
  std::vector<MislabelFinding> mislabels;
  RunToFailureReport run_to_failure;

  /// §2.6: a benchmark is "irretrievably flawed" when triviality is
  /// pervasive, or labels are demonstrably wrong, or density/placement
  /// breaks the task's assumptions.
  bool irretrievably_flawed = false;
  std::vector<std::string> verdict_reasons;
};

BenchmarkAudit AuditBenchmark(const BenchmarkDataset& dataset,
                              const AuditConfig& config = {});

/// Renders the audit as a human-readable report block (the paper's
/// recommendation to *show* the problems, §4.3).
std::string FormatAudit(const BenchmarkAudit& audit);

}  // namespace tsad

#endif  // TSAD_CORE_BENCHMARK_AUDIT_H_
