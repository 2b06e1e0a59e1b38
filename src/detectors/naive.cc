#include "detectors/naive.h"

#include <cmath>

#include "substrates/sliding_window.h"

namespace tsad {

Result<std::vector<double>> LastPointDetector::Score(
    const Series& series, std::size_t /*train_length*/) const {
  std::vector<double> scores(series.size(), 0.0);
  if (!scores.empty()) scores.back() = 1.0;
  return scores;
}

Result<std::vector<double>> MaxAbsDiffDetector::Score(
    const Series& series, std::size_t /*train_length*/) const {
  std::vector<double> scores(series.size(), 0.0);
  for (std::size_t i = 1; i < series.size(); ++i) {
    scores[i] = std::fabs(series[i] - series[i - 1]);
  }
  return scores;
}

ConstantRunDetector::ConstantRunDetector(std::size_t min_run)
    : min_run_(min_run),
      name_("ConstantRun[min=" + std::to_string(min_run) + "]") {}

Result<std::vector<double>> ConstantRunDetector::Score(
    const Series& series, std::size_t /*train_length*/) const {
  // Run members must be exactly equal: the diff(diff(TS)) == 0 trick.
  constexpr double kRunTolerance = 0.0;
  std::vector<double> scores(series.size(), 0.0);
  for (const auto& [begin, end] :
       FindConstantRuns(series, min_run_, kRunTolerance)) {
    const double run_score = static_cast<double>(end - begin);
    for (std::size_t i = begin; i < end; ++i) scores[i] = run_score;
  }
  return scores;
}

}  // namespace tsad
