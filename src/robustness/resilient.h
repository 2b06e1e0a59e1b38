// ResilientDetector: a hardening decorator around any AnomalyDetector.
//
// A production serving path cannot afford one dirty series or one slow
// detector taking down a whole evaluation run. The wrapper builds a
// staged pipeline around the inner detector:
//
//   1. validate + sanitize the input (NaN, inf and kDefaultSentinel
//      markers interpolated, see robustness/sanitize.h; refuse with
//      kResourceExhausted when more than half the input is missing —
//      past that the series is noise, not data),
//   2. score with the wrapped detector,
//   3. sanitize the output (non-finite scores patched; a track more
//      than half non-finite counts as failure, not success),
//   4. on failure, retry once with a simplified configuration of the
//      same detector (e.g. half the window), and finally
//   5. degrade gracefully to a cheap fallback detector (moving z-score
//      by default via the registry) rather than erroring out.
//
// The registry exposes this as the spec prefix `resilient:<spec>`, e.g.
// `resilient:discord:m=128`. Like every detector's, its Score() keeps
// no state between calls; a caller that wants to know which stage
// served a call passes a ResilientReport.

#ifndef TSAD_ROBUSTNESS_RESILIENT_H_
#define TSAD_ROBUSTNESS_RESILIENT_H_

#include <memory>
#include <string>

#include "detectors/detector.h"
#include "robustness/sanitize.h"

namespace tsad {

/// Which pipeline stage produced a call's scores.
enum class ServedBy {
  kNone,        // every stage failed
  kPrimary,     // the wrapped detector
  kSimplified,  // the simplified-configuration retry
  kFallback,    // the registered fallback detector
};

std::string_view ServedByName(ServedBy served);

/// What one Score() or ScoreReusing() call did, stage by stage.
struct ResilientReport {
  ServedBy served_by = ServedBy::kNone;
  Status primary_status;           // the primary stage's error, or OK
  MissingScan scan;                // of the input series
  std::size_t scores_patched = 0;  // non-finite scores the served stage
                                   // emitted, patched to 0
};

class ResilientDetector : public AnomalyDetector {
 public:
  /// `inner` is required. `simplified` (same detector family, cheaper
  /// configuration) and `fallback` are optional stages; pass nullptr to
  /// skip them. The registry wires all three from a spec string.
  ResilientDetector(std::unique_ptr<AnomalyDetector> inner,
                    std::unique_ptr<AnomalyDetector> simplified = nullptr,
                    std::unique_ptr<AnomalyDetector> fallback = nullptr);

  std::string_view name() const override { return name_; }
  using AnomalyDetector::Score;
  Result<std::vector<double>> Score(const Series& series,
                                    std::size_t train_length) const override;
  /// Score() that also writes what the call did into *report.
  Result<std::vector<double>> Score(const Series& series,
                                    std::size_t train_length,
                                    ResilientReport* report) const;

  /// Score() for a caller that has already run inner(), or a detector
  /// built from the same spec, on the same (series, train_length):
  /// `inner_scores` is that call's result, ok or not. It stands in for
  /// the primary stage only where that stage would make the very same
  /// call: the sanitizer left the input unchanged and
  /// train_length <= series.size(). Elsewhere it is ignored and
  /// this is Score(). Every later step (score checks and patching,
  /// simplified retry, fallback, the report) runs as in Score().
  Result<std::vector<double>> ScoreReusing(
      const Series& series, std::size_t train_length,
      const Result<std::vector<double>>& inner_scores,
      ResilientReport* report = nullptr) const;

  const AnomalyDetector& inner() const { return *inner_; }

 private:
  // The one pipeline behind Score() (inner_scores == nullptr) and
  // ScoreReusing(); fills *report unless it is null.
  Result<std::vector<double>> Run(
      const Series& series, std::size_t train_length,
      const Result<std::vector<double>>* inner_scores,
      ResilientReport* report) const;
  // One stage: `detector` scores `input`, unless `supplied` already
  // holds that call's result. Then the checks run and the scores are
  // patched, counting the patches into *patched.
  Result<std::vector<double>> RunStage(
      const AnomalyDetector& detector, const Series& input,
      std::size_t train_length, std::size_t* patched,
      const Result<std::vector<double>>* supplied = nullptr) const;

  std::unique_ptr<AnomalyDetector> inner_;
  std::unique_ptr<AnomalyDetector> simplified_;
  std::unique_ptr<AnomalyDetector> fallback_;
  std::string name_;
};

}  // namespace tsad

#endif  // TSAD_ROBUSTNESS_RESILIENT_H_
