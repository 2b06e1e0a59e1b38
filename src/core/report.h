// Markdown rendering for benchmark audits — §4.3's "visualize the data"
// recommendation turned into an artifact: one self-contained .md file
// with the verdict, the four flaw sections, per-series tables, and
// ASCII sparklines of the worst offenders.

#ifndef TSAD_CORE_REPORT_H_
#define TSAD_CORE_REPORT_H_

#include <string>

#include "common/series.h"
#include "common/status.h"
#include "core/benchmark_audit.h"

namespace tsad {

/// Renders a full Markdown report of the audit. `dataset` must be the
/// dataset the audit was computed from (for the sparkline panels of the
/// first six flagged series).
std::string RenderAuditReport(const BenchmarkAudit& audit,
                              const BenchmarkDataset& dataset);

/// Renders and writes the report to `path`.
Status WriteAuditReport(const BenchmarkAudit& audit,
                        const BenchmarkDataset& dataset,
                        const std::string& path);

/// A one-line ASCII sparkline of a series, at most `width` characters.
std::string AsciiSparkline(const Series& values, std::size_t width);

}  // namespace tsad

#endif  // TSAD_CORE_REPORT_H_
