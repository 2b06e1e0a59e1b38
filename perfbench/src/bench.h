// Shared pieces of the perfbench workloads: run options, the outcome a
// workload reports (metrics, attempted/failed counts, correctness
// gates), and timing helpers.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measurement budget of one run
  bool trace = false;
  std::size_t threads = 4;  // fixed for the whole run
  std::string commit = "unknown";
  std::string out_dir;  // where records and traces are written
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced.
class Outcome {
 public:
  /// Counts `attempted` operations of which `failed` failed. Failures
  /// raise error_rate; they do not by themselves make the run incorrect.
  void Count(std::uint64_t attempted, std::uint64_t failed,
             const std::string& what);

  /// A correctness gate: one attempted operation that fails (and marks
  /// the run incorrect) unless `ok`. Returns `ok`.
  bool Gate(bool ok, const std::string& what);

  /// An end-to-end metric (untraced run) or a per-layer metric (traced
  /// run), named as in BENCHMARK.json. Per-layer names map ':' and '='
  /// in detector specs to '-'.
  void EndToEnd(const std::string& name, double value, const std::string& unit);
  void Layer(const std::string& name, double value, const std::string& unit);

  /// A workload-specific headline number printed for people (for
  /// example leaderboard_s or serve_p99_ms), with an optional note.
  void Headline(const std::string& name, double value, const std::string& unit,
                const std::string& note = "");

  /// Settings stamped into the record next to the host fingerprint.
  void Setting(const std::string& name, const std::string& value);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return correct_; }
  const std::vector<Metric>& end_to_end() const { return end_to_end_; }
  const std::vector<Metric>& layer() const { return layer_; }
  const std::vector<Metric>& headline() const { return headline_; }
  const std::vector<std::string>& notes() const { return notes_; }
  const std::vector<std::pair<std::string, std::string>>& settings() const {
    return settings_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layer_;
  std::vector<Metric> headline_;
  std::vector<std::string> notes_;  // parallel to headline_
  std::vector<std::pair<std::string, std::string>> settings_;
};

/// Median and linear-interpolated quantile (q in [0, 1]) of `values`.
double Median(std::vector<double> values);
double Quantile(std::vector<double> values, double q);

/// Calls `fn` repeatedly and returns each call's wall time: at least
/// `min_reps` calls, then more while the total stays under `budget_s`
/// (a call is started only if it is expected to finish in budget), and
/// never more than `max_reps`.
std::vector<double> TimeRepeated(double budget_s, int min_reps, int max_reps,
                                 const std::function<void()>& fn);

/// Peak resident memory of this process so far, in MB.
double PeakRssMb();

/// "resilient:zscore:w=64" -> "resilient-zscore-w-64".
std::string MetricSafe(std::string spec);

/// Sum of the durations of spans named `name`, optionally restricted to
/// one spec attribute.
double SpanSeconds(const std::vector<trace::Span>& spans,
                   const std::string& name, const std::string& spec = "");

/// Durations (seconds) of spans named `name`.
std::vector<double> SpanDurations(const std::vector<trace::Span>& spans,
                                  const std::string& name);

/// Parallel efficiency of the tasks below one fan-out span: summed task
/// time / (threads x the fan-out span's wall time); also the longest
/// task. Tasks are the spans named `task` whose parent is the span
/// named `fanout`.
struct Efficiency {
  double efficiency = 0.0;
  double max_task_s = 0.0;
};
Efficiency ParallelEfficiency(const std::vector<trace::Span>& spans,
                              const std::string& fanout,
                              const std::string& task, std::size_t threads);

Outcome RunLeaderboardWorkload(const Options& options);
Outcome RunTable1Workload(const Options& options);
Outcome RunServeWorkload(const Options& options);
Outcome RunDiscoveryWorkload(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
