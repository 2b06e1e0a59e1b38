// ResilientDetector: a hardening decorator around any AnomalyDetector.
//
// A production serving path cannot afford one dirty series or one slow
// detector taking down a whole evaluation run. The wrapper builds a
// staged pipeline around the inner detector:
//
//   1. validate + sanitize the input (NaN, inf and kDefaultSentinel
//      markers imputed under a pluggable policy; refuse with
//      kResourceExhausted when more than half the input is missing —
//      past that the series is noise, not data),
//   2. score under a cooperative deadline (kDeadlineExceeded instead of
//      an unbounded run — see robustness/deadline.h),
//   3. sanitize the output (non-finite scores patched; a track more
//      than half non-finite counts as failure, not success),
//   4. on failure, retry once with a simplified configuration of the
//      same detector (e.g. half the window), and finally
//   5. degrade gracefully to a cheap fallback detector (moving z-score
//      by default via the registry) rather than erroring out.
//
// The registry exposes this as the spec prefix `resilient:<spec>`, e.g.
// `resilient:discord:m=128`.

#ifndef TSAD_ROBUSTNESS_RESILIENT_H_
#define TSAD_ROBUSTNESS_RESILIENT_H_

#include <chrono>
#include <memory>
#include <string>

#include "detectors/detector.h"
#include "robustness/sanitize.h"

namespace tsad {

struct ResilientConfig {
  /// How missing input points are repaired before scoring.
  ImputationPolicy imputation = ImputationPolicy::kLinearInterpolate;
  /// Per-attempt scoring budget; zero disables the watchdog. Applies to
  /// each stage (primary, retry, fallback) separately, so a timed-out
  /// primary still leaves the fallback its full budget.
  std::chrono::milliseconds deadline{0};
};

/// Which pipeline stage produced the scores of the last Score() call.
enum class ServedBy {
  kNone,        // no call yet, or every stage failed
  kPrimary,     // the wrapped detector
  kSimplified,  // the simplified-configuration retry
  kFallback,    // the registered fallback detector
};

std::string_view ServedByName(ServedBy served);

class ResilientDetector : public AnomalyDetector {
 public:
  /// `inner` is required. `simplified` (same detector family, cheaper
  /// configuration) and `fallback` are optional stages; pass nullptr to
  /// skip them. The registry wires all three from a spec string.
  ResilientDetector(std::unique_ptr<AnomalyDetector> inner,
                    ResilientConfig config = {},
                    std::unique_ptr<AnomalyDetector> simplified = nullptr,
                    std::unique_ptr<AnomalyDetector> fallback = nullptr);

  std::string_view name() const override { return name_; }
  using AnomalyDetector::Score;
  Result<std::vector<double>> Score(const Series& series,
                                    std::size_t train_length) const override;

  /// Score() for a caller that has already run inner(), or a detector
  /// built from the same spec, on the same (series, train_length):
  /// `inner_scores` is that call's result, ok or not. It stands in for
  /// the primary stage only where that stage would make the very same
  /// call: the sanitizer left the input unchanged, no deadline is set
  /// and train_length <= series.size(). Elsewhere it is ignored and
  /// this is Score(). Every later step (score checks and patching,
  /// simplified retry, fallback, telemetry) runs as in Score().
  Result<std::vector<double>> ScoreReusing(
      const Series& series, std::size_t train_length,
      const Result<std::vector<double>>& inner_scores) const;

  const AnomalyDetector& inner() const { return *inner_; }

  /// The last_* telemetry below is mutable per-call state, so two
  /// threads must not Score() the same instance concurrently.
  bool concurrent_score_safe() const override { return false; }

  // Telemetry from the most recent Score() or ScoreReusing() call
  // (single-threaded use).
  ServedBy last_served_by() const { return last_served_by_; }
  const Status& last_primary_status() const { return last_primary_status_; }
  const MissingScan& last_scan() const { return last_scan_; }
  std::size_t last_scores_patched() const { return last_scores_patched_; }

 private:
  // The one pipeline behind Score() (inner_scores == nullptr) and
  // ScoreReusing().
  Result<std::vector<double>> Run(
      const Series& series, std::size_t train_length,
      const Result<std::vector<double>>* inner_scores) const;
  // One stage: `detector` scores `input`, unless `supplied` already
  // holds that call's result. Then the checks and patching run.
  Result<std::vector<double>> RunStage(
      const AnomalyDetector& detector, const SanitizedSeries& input,
      std::size_t original_length, std::size_t train_length,
      const Result<std::vector<double>>* supplied = nullptr) const;

  std::unique_ptr<AnomalyDetector> inner_;
  std::unique_ptr<AnomalyDetector> simplified_;
  std::unique_ptr<AnomalyDetector> fallback_;
  ResilientConfig config_;
  std::string name_;

  mutable ServedBy last_served_by_ = ServedBy::kNone;
  mutable Status last_primary_status_;
  mutable MissingScan last_scan_;
  mutable std::size_t last_scores_patched_ = 0;
};

}  // namespace tsad

#endif  // TSAD_ROBUSTNESS_RESILIENT_H_
