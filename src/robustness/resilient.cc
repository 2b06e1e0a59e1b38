#include "robustness/resilient.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace tsad {

std::string_view ServedByName(ServedBy served) {
  switch (served) {
    case ServedBy::kNone:
      return "none";
    case ServedBy::kPrimary:
      return "primary";
    case ServedBy::kSimplified:
      return "simplified";
    case ServedBy::kFallback:
      return "fallback";
  }
  return "?";
}

ResilientDetector::ResilientDetector(std::unique_ptr<AnomalyDetector> inner,
                                     std::unique_ptr<AnomalyDetector> simplified,
                                     std::unique_ptr<AnomalyDetector> fallback)
    : inner_(std::move(inner)),
      simplified_(std::move(simplified)),
      fallback_(std::move(fallback)),
      name_("resilient(" + std::string(inner_->name()) + ")") {}

Result<std::vector<double>> ResilientDetector::RunStage(
    const AnomalyDetector& detector, const Series& input,
    std::size_t train_length, std::size_t* patched,
    const Result<std::vector<double>>* supplied) const {
  Result<std::vector<double>> scores =
      supplied != nullptr ? *supplied : detector.Score(input, train_length);
  if (!scores.ok()) return scores;
  if (scores->size() != input.size()) {
    return Status::Internal(std::string(detector.name()) + " returned " +
                            std::to_string(scores->size()) + " scores for " +
                            std::to_string(input.size()) + " points");
  }
  // A track more than half non-finite did not really succeed; patching
  // it point-wise would invent a signal that is not there.
  constexpr double kMaxBadScoreFraction = 0.5;
  std::size_t bad = 0;
  for (double s : *scores) {
    if (!std::isfinite(s)) ++bad;
  }
  if (!scores->empty() &&
      static_cast<double>(bad) >
          kMaxBadScoreFraction * static_cast<double>(scores->size())) {
    return Status::Internal(std::string(detector.name()) + " emitted " +
                            std::to_string(bad) + "/" +
                            std::to_string(scores->size()) +
                            " non-finite scores");
  }
  *patched = SanitizeScores(*scores);
  return scores;
}

Result<std::vector<double>> ResilientDetector::Score(
    const Series& series, std::size_t train_length) const {
  return Run(series, train_length, nullptr, nullptr);
}

Result<std::vector<double>> ResilientDetector::Score(
    const Series& series, std::size_t train_length,
    ResilientReport* report) const {
  return Run(series, train_length, nullptr, report);
}

Result<std::vector<double>> ResilientDetector::ScoreReusing(
    const Series& series, std::size_t train_length,
    const Result<std::vector<double>>& inner_scores,
    ResilientReport* report) const {
  return Run(series, train_length, &inner_scores, report);
}

Result<std::vector<double>> ResilientDetector::Run(
    const Series& series, std::size_t train_length,
    const Result<std::vector<double>>* inner_scores,
    ResilientReport* out) const {
  ResilientReport discarded;
  ResilientReport& report = out != nullptr ? *out : discarded;
  report = ResilientReport{};
  Result<SanitizedSeries> sanitized = SanitizeSeries(series);
  if (!sanitized.ok()) {
    report.scan = ScanForMissing(series);
    return sanitized.status();
  }
  report.scan = sanitized->scan;
  const Series& input = sanitized->values;
  const std::size_t train = std::min(train_length, input.size());

  // The caller's inner result is only the primary stage's own call when
  // nothing was imputed (same values) and the prefix was not clamped
  // (same train_length).
  if (sanitized->scan.num_missing() != 0 || train_length > series.size()) {
    inner_scores = nullptr;
  }
  Result<std::vector<double>> primary = RunStage(
      *inner_, input, train, &report.scores_patched, inner_scores);
  if (primary.ok()) {
    report.served_by = ServedBy::kPrimary;
    return primary;
  }
  report.primary_status = primary.status();

  if (simplified_ != nullptr) {
    Result<std::vector<double>> retried =
        RunStage(*simplified_, input, train, &report.scores_patched);
    if (retried.ok()) {
      report.served_by = ServedBy::kSimplified;
      return retried;
    }
  }

  if (fallback_ != nullptr) {
    Result<std::vector<double>> rescued =
        RunStage(*fallback_, input, train, &report.scores_patched);
    if (rescued.ok()) {
      report.served_by = ServedBy::kFallback;
      return rescued;
    }
  }

  // Every stage failed; the primary's error is the informative one.
  return primary.status();
}

}  // namespace tsad
