// Telemanom-style detector (Hundman et al., KDD 2018): a one-step-ahead
// predictor and its smoothed prediction errors as the score track.
//
// SUBSTITUTION (documented in DESIGN.md): the original uses a 2-layer
// LSTM as the predictor; we use a ridge-regularized autoregressive
// linear predictor fit on the training prefix, and the error smoothing
// follows the paper. The paper's nonparametric dynamic thresholding and
// anomaly pruning are not implemented: every consumer here (the
// leaderboard, the benches, Fig 13) scores the track itself. For the
// behaviours this repository studies (Fig 13: peak placement and noise
// sensitivity of a prediction-error detector), the predictor class
// matters (prediction-error vs. distance-based), not the predictor's
// parameter count.

#ifndef TSAD_DETECTORS_TELEMANOM_H_
#define TSAD_DETECTORS_TELEMANOM_H_

#include <cstddef>
#include <vector>

#include "detectors/detector.h"

namespace tsad {

/// Ridge-regularized autoregressive one-step-ahead predictor:
/// x[t] ~ w0 + sum_{j=1..order} w[j] * x[t-j].
class ArPredictor {
 public:
  /// Fits on `train` (requires train.size() > order + 8). `ridge` is
  /// the L2 penalty on the AR coefficients (not the intercept).
  static Result<ArPredictor> Fit(const Series& train, std::size_t order,
                                 double ridge = 1e-3);

  /// One-step-ahead predictions over the whole series. Entry i is the
  /// prediction of series[i] from its `order` predecessors; the first
  /// `order` entries repeat the observed values (zero error).
  std::vector<double> Predict(const Series& series) const;

 private:
  ArPredictor(std::size_t order, std::vector<double> weights, double intercept)
      : order_(order), weights_(std::move(weights)), intercept_(intercept) {}

  std::size_t order_;
  std::vector<double> weights_;  // weights_[j] multiplies x[t-1-j]
  double intercept_;
};

/// Full detector configuration.
struct TelemanomConfig {
  std::size_t ar_order = 32;       // predictor history length
  double ridge = 1e-3;             // ridge penalty
  double ewma_alpha = 0.05;        // error smoothing factor
};

class TelemanomDetector : public AnomalyDetector {
 public:
  explicit TelemanomDetector(TelemanomConfig config = {});

  std::string_view name() const override { return name_; }

  /// Smoothed prediction-error score track. Requires a training prefix
  /// (train_length > ar_order + 8); returns FailedPrecondition
  /// otherwise.
  using AnomalyDetector::Score;
  Result<std::vector<double>> Score(const Series& series,
                                    std::size_t train_length) const override;

 private:
  TelemanomConfig config_;
  std::string name_;
};

}  // namespace tsad

#endif  // TSAD_DETECTORS_TELEMANOM_H_
