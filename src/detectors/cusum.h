// Two-sided CUSUM change detector (Page, Biometrika 1957) — the paper's
// opening citation ("papers dating back to the dawn of computer
// science") and the canonical pre-deep-learning changepoint method.

#ifndef TSAD_DETECTORS_CUSUM_H_
#define TSAD_DETECTORS_CUSUM_H_

#include <algorithm>
#include <cstddef>

#include "common/wire.h"
#include "detectors/detector.h"
#include "detectors/reference_stats.h"

namespace tsad {

/// The CUSUM recursion on reference statistics (mu, sigma), one point
/// at a time: CusumDetector::Score and the online adapter both step it.
class CusumCore {
 public:
  CusumCore(double drift, double reset_threshold,
            const ReferenceStats& ref = {})
      : ref_(ref), drift_(drift), reset_threshold_(reset_threshold) {}

  /// These parameters on `ref`, with the recursion at its start.
  CusumCore WithReference(const ReferenceStats& ref) const {
    return CusumCore(drift_, reset_threshold_, ref);
  }
  const ReferenceStats& reference() const { return ref_; }

  /// Advances S+ and S- by x and returns max(S+, S-).
  double Step(double x) {
    const double z = (x - ref_.mu) / ref_.sigma;
    s_pos_ = std::max(0.0, s_pos_ + z - drift_);
    s_neg_ = std::max(0.0, s_neg_ - z - drift_);
    const double score = std::max(s_pos_, s_neg_);
    if (reset_threshold_ > 0.0 && score > reset_threshold_) {
      s_pos_ = 0.0;
      s_neg_ = 0.0;
    }
    return score;
  }

  /// Snapshot codec for the recursion state (S+, S-).
  void PutState(ByteWriter* writer) const;
  Status GetState(ByteReader* reader);

 private:
  ReferenceStats ref_;
  double drift_;
  double reset_threshold_;
  double s_pos_ = 0.0;
  double s_neg_ = 0.0;
};

/// Two-sided CUSUM on standardized residuals, with reference statistics
/// from FitReferenceStats (the training prefix when available,
/// otherwise the whole series' median/MAD).
///
/// S+[i] = max(0, S+[i-1] + z[i] - drift)
/// S-[i] = max(0, S-[i-1] - z[i] - drift)
/// score[i] = max(S+[i], S-[i])
class CusumDetector : public AnomalyDetector {
 public:
  /// `drift` is the slack parameter kappa (typically 0.5 sigma). The
  /// statistic is reset to zero whenever it exceeds `reset_threshold`
  /// (0 disables resets), which keeps the score track localized instead
  /// of saturating after the first change.
  explicit CusumDetector(double drift = 0.5, double reset_threshold = 0.0);

  std::string_view name() const override { return name_; }
  using AnomalyDetector::Score;
  Result<std::vector<double>> Score(const Series& series,
                                    std::size_t train_length) const override;

  double drift() const { return drift_; }
  double reset_threshold() const { return reset_threshold_; }

 private:
  double drift_;
  double reset_threshold_;
  std::string name_;
};

}  // namespace tsad

#endif  // TSAD_DETECTORS_CUSUM_H_
