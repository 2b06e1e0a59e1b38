#include "robustness/resilient.h"

#include <cmath>
#include <utility>

#include "robustness/deadline.h"

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
                                     ResilientConfig config,
                                     std::unique_ptr<AnomalyDetector> simplified,
                                     std::unique_ptr<AnomalyDetector> fallback)
    : inner_(std::move(inner)),
      simplified_(std::move(simplified)),
      fallback_(std::move(fallback)),
      config_(config),
      name_("resilient(" + std::string(inner_->name()) + ")") {}

Result<std::vector<double>> ResilientDetector::RunStage(
    const AnomalyDetector& detector, const SanitizedSeries& input,
    std::size_t original_length, std::size_t train_length,
    const Result<std::vector<double>>* supplied) const {
  Result<std::vector<double>> scores = [&] {
    if (supplied != nullptr) return *supplied;
    if (config_.deadline.count() > 0) {
      DeadlineScope scope(config_.deadline);
      return detector.Score(input.values, input.MapTrainLength(train_length));
    }
    return detector.Score(input.values, input.MapTrainLength(train_length));
  }();
  if (!scores.ok()) return scores;
  if (scores->size() != input.values.size()) {
    return Status::Internal(std::string(detector.name()) + " returned " +
                            std::to_string(scores->size()) + " scores for " +
                            std::to_string(input.values.size()) + " points");
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
  last_scores_patched_ = SanitizeScores(*scores);
  return input.ExpandScores(*scores, original_length);
}

Result<std::vector<double>> ResilientDetector::Score(
    const Series& series, std::size_t train_length) const {
  return Run(series, train_length, nullptr);
}

Result<std::vector<double>> ResilientDetector::ScoreReusing(
    const Series& series, std::size_t train_length,
    const Result<std::vector<double>>& inner_scores) const {
  return Run(series, train_length, &inner_scores);
}

Result<std::vector<double>> ResilientDetector::Run(
    const Series& series, std::size_t train_length,
    const Result<std::vector<double>>* inner_scores) const {
  last_served_by_ = ServedBy::kNone;
  last_primary_status_ = Status::OK();
  last_scores_patched_ = 0;

  // Past half missing, the series is noise, not data: refuse it.
  constexpr double kMaxMissingFraction = 0.5;
  Result<SanitizedSeries> sanitized =
      SanitizeSeries(series, config_.imputation, kDefaultSentinel,
                     kMaxMissingFraction);
  if (!sanitized.ok()) {
    last_scan_ = ScanForMissing(series, kDefaultSentinel);
    return sanitized.status();
  }
  last_scan_ = sanitized->scan;

  // The caller's inner result is only the primary stage's own call when
  // nothing was imputed (same values), MapTrainLength did not clamp
  // (same prefix) and there is no watchdog for that call to honour.
  if (sanitized->scan.num_missing() != 0 || config_.deadline.count() > 0 ||
      train_length > series.size()) {
    inner_scores = nullptr;
  }
  Result<std::vector<double>> primary = RunStage(
      *inner_, *sanitized, series.size(), train_length, inner_scores);
  if (primary.ok()) {
    last_served_by_ = ServedBy::kPrimary;
    return primary;
  }
  last_primary_status_ = primary.status();

  if (simplified_ != nullptr) {
    Result<std::vector<double>> retried =
        RunStage(*simplified_, *sanitized, series.size(), train_length);
    if (retried.ok()) {
      last_served_by_ = ServedBy::kSimplified;
      return retried;
    }
  }

  if (fallback_ != nullptr) {
    Result<std::vector<double>> rescued =
        RunStage(*fallback_, *sanitized, series.size(), train_length);
    if (rescued.ok()) {
      last_served_by_ = ServedBy::kFallback;
      return rescued;
    }
  }

  // Every stage failed; the primary's error is the informative one.
  return primary.status();
}

}  // namespace tsad
