// table1 workload: the paper's Table 1 brute force. AnalyzeTriviality
// over several seeded simulated Yahoo archives (367 series each), so
// one pass is long enough to time. The correctness gate re-runs
// FindOneLiner on every series and requires the report's solution, bit
// for bit.

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"
#include "common/parallel.h"
#include "core/triviality.h"
#include "datasets/yahoo.h"

namespace perfbench {

namespace {

constexpr std::size_t kArchives = 6;

std::vector<tsad::YahooArchive> BuildArchives(std::uint64_t seed) {
  std::vector<tsad::YahooArchive> archives;
  for (std::size_t i = 0; i < kArchives; ++i) {
    tsad::YahooConfig config;
    config.seed = seed * 1000 + i;
    trace::Scope span("datasets.build", {"", "yahoo"});
    archives.push_back(tsad::GenerateYahooArchive(config));
  }
  return archives;
}

bool SameSolution(const tsad::TrivialitySolution& a,
                  const tsad::TrivialitySolution& b) {
  return a.solved == b.solved &&
         std::memcmp(&a.headroom, &b.headroom, sizeof(double)) == 0 &&
         (!a.solved ||
          (a.params.use_abs == b.params.use_abs &&
           a.params.use_movmean == b.params.use_movmean &&
           a.params.k == b.params.k &&
           std::memcmp(&a.params.c, &b.params.c, sizeof(double)) == 0 &&
           std::memcmp(&a.params.b, &b.params.b, sizeof(double)) == 0));
}

}  // namespace

Outcome RunTable1Workload(const Options& options) {
  Outcome outcome;
  constexpr int kSetups = 5;
  constexpr int kWarmups = 2;
  outcome.Setting("warmup_passes", std::to_string(kWarmups));
  outcome.Setting("setup_repeats", std::to_string(kSetups));
  outcome.Setting("archives", std::to_string(kArchives));
  trace::SetEnabled(options.trace);

  std::vector<tsad::YahooArchive> archives;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point start = Clock::now();
    archives = BuildArchives(options.seed);
    setups.push_back(SecondsSince(start));
  }
  std::vector<const tsad::BenchmarkDataset*> datasets;
  std::vector<const tsad::LabeledSeries*> flat;
  for (const tsad::YahooArchive& archive : archives) {
    for (const tsad::BenchmarkDataset* d : archive.all()) {
      datasets.push_back(d);
      for (const tsad::LabeledSeries& s : d->series) flat.push_back(&s);
    }
  }

  std::vector<tsad::TrivialityReport> reports;
  const auto analyze = [&] {
    trace::Scope span("core.analyze_triviality");
    reports.push_back(tsad::AnalyzeTriviality(datasets));
    outcome.Count(flat.size(), 0, "series");
  };
  trace::SetEnabled(false);
  for (int i = 0; i < kWarmups; ++i) analyze();
  reports.clear();

  std::vector<double> passes, traced_passes;
  if (!options.trace) {
    passes = TimeRepeated(options.seconds, 3, 200, analyze);
  } else {
    double total = 0.0;
    while (passes.size() < 3 || total < options.seconds) {
      const Clock::time_point a = Clock::now();
      analyze();
      passes.push_back(SecondsSince(a));
      trace::SetEnabled(true);
      const Clock::time_point b = Clock::now();
      analyze();
      traced_passes.push_back(SecondsSince(b));
      trace::SetEnabled(false);
      total += passes.back() + traced_passes.back();
    }
  }

  // Gate: every pass agrees, and per-series FindOneLiner equals the
  // report (run over the pool, one task span per series).
  const tsad::TrivialityReport& report = reports.front();
  for (const tsad::TrivialityReport& r : reports) {
    bool same = r.solved == report.solved && r.series.size() == report.series.size();
    for (std::size_t i = 0; same && i < r.series.size(); ++i) {
      same = SameSolution(r.series[i].solution, report.series[i].solution);
    }
    outcome.Gate(same, "AnalyzeTriviality identical across passes");
  }
  trace::SetEnabled(options.trace);
  std::vector<tsad::TrivialitySolution> direct(flat.size());
  {
    trace::Scope fanout("common.parallel_for", {"", "table1"});
    const std::uint64_t parent = fanout.id();
    const tsad::Status status = tsad::ParallelFor(0, flat.size(), [&](std::size_t i) {
      trace::Scope task("common.parallel.task", {}, parent);
      trace::Scope span("core.triviality.find",
                        {flat[i]->name(), "yahoo",
                         static_cast<std::int64_t>(flat[i]->length())});
      direct[i] = tsad::FindOneLiner(*flat[i]);
      return tsad::Status::OK();
    });
    outcome.Gate(status.ok(), "FindOneLiner fan-out: " + status.ToString());
  }
  trace::SetEnabled(false);
  std::size_t mismatched = 0;
  std::array<std::size_t, 4> by_form = {0, 0, 0, 0};
  std::size_t solved = 0;
  if (outcome.Gate(report.series.size() == flat.size(), "report covers every series")) {
    for (std::size_t i = 0; i < flat.size(); ++i) {
      const bool same = SameSolution(direct[i], report.series[i].solution) &&
                        report.series[i].series_name == flat[i]->name();
      mismatched += same ? 0 : 1;
      outcome.Gate(same, "FindOneLiner matches report for " + flat[i]->name());
      if (direct[i].solved) {
        ++solved;
        ++by_form[static_cast<int>(direct[i].params.form())];
      }
    }
  }
  outcome.Gate(solved == report.solved && report.total == flat.size(),
               "report totals match the per-series solutions");
  std::printf("table1 gate: %zu of %zu series match FindOneLiner; %zu solved\n",
              flat.size() - mismatched, flat.size(), solved);

  const double setup_s = Median(setups);
  const double pass_s = Median(passes);
  outcome.Headline("table1_s", pass_s, "s",
                   "median of " + std::to_string(passes.size()) +
                       " AnalyzeTriviality passes over " +
                       std::to_string(flat.size()) + " series");
  outcome.Headline("setup_s", setup_s, "s", "median of " + std::to_string(kSetups) + " archive builds");
  outcome.Headline("peak_rss_mb", PeakRssMb(), "MB");
  outcome.Setting("passes", std::to_string(passes.size()));
  outcome.EndToEnd("setup_s", setup_s, "s");
  outcome.EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  outcome.EndToEnd("work_s", pass_s, "s");

  if (options.trace) {
    const std::vector<trace::Span> spans = trace::Collect();
    const Efficiency eff = ParallelEfficiency(spans, "common.parallel_for",
                                              "common.parallel.task",
                                              options.threads);
    outcome.Layer("common.parallel.efficiency.table1", eff.efficiency, "fraction");
    outcome.Layer("common.parallel.max_task_s.table1", eff.max_task_s, "s");
    outcome.Layer("datasets.build_s.table1",
                  SpanSeconds(spans, "datasets.build") / kSetups, "s");
    const std::vector<double> finds = SpanDurations(spans, "core.triviality.find");
    double sum = 0.0, max = 0.0;
    for (double d : finds) {
      sum += d;
      max = std::max(max, d);
    }
    outcome.Layer("core.triviality.find_s.sum", sum, "s");
    outcome.Layer("core.triviality.find_s.p50", Median(finds), "s");
    outcome.Layer("core.triviality.find_s.max", max, "s");
    const char* forms[] = {"eq3", "eq4", "eq5", "eq6"};
    for (int f = 0; f < 4; ++f) {
      outcome.Layer(std::string("core.triviality.solved.") + forms[f],
                    static_cast<double>(by_form[f]), "count");
    }
    outcome.Layer("core.triviality.unsolved", static_cast<double>(flat.size() - solved),
                  "count");
    const double traced = Median(traced_passes);
    outcome.Layer("trace.overhead_s", traced - pass_s, "s");
    outcome.Layer("trace.overhead_frac", (traced - pass_s) / pass_s, "fraction");
  }
  return outcome;
}

}  // namespace perfbench
