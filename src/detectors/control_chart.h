// Classic statistical-process-control detectors — more of the
// "decades-old simple methods" (§4.5) that belong on any leaderboard
// next to deep models:
//
//  * EWMA control chart (Roberts, 1959): an exponentially weighted
//    moving average tracked against control limits derived from the
//    training/robust reference.
//  * Page-Hinkley test (Page, 1954): a one-sided cumulative deviation
//    statistic with a built-in minimum, the classic drift detector.
//
// Both standardize against FitReferenceStats, and each runs one step
// core that its batch Score and its online adapter share.

#ifndef TSAD_DETECTORS_CONTROL_CHART_H_
#define TSAD_DETECTORS_CONTROL_CHART_H_

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/wire.h"
#include "detectors/detector.h"
#include "detectors/reference_stats.h"

namespace tsad {

/// The EWMA chart recursion on reference statistics (mu, sigma): the
/// average starts at mu, and the (1-lambda)^(2i) decay of the standard
/// error is carried as a running product.
class EwmaChartCore {
 public:
  explicit EwmaChartCore(double lambda, const ReferenceStats& ref = {})
      : ref_(ref), lambda_(lambda), ewma_(ref.mu) {}

  /// This lambda on `ref`, with the recursion at its start.
  EwmaChartCore WithReference(const ReferenceStats& ref) const {
    return EwmaChartCore(lambda_, ref);
  }
  const ReferenceStats& reference() const { return ref_; }

  /// Folds x into the average and returns |ewma - mu| / standard error.
  double Step(double x) {
    ewma_ = lambda_ * x + (1.0 - lambda_) * ewma_;
    decay_ *= (1.0 - lambda_) * (1.0 - lambda_);
    const double var_factor = lambda_ / (2.0 - lambda_);
    const double se = ref_.sigma * std::sqrt(var_factor * (1.0 - decay_));
    return std::fabs(ewma_ - ref_.mu) / std::max(1e-12, se);
  }

  /// Snapshot codec for the recursion state (average, decay).
  void PutState(ByteWriter* writer) const;
  Status GetState(ByteReader* reader);

 private:
  ReferenceStats ref_;
  double lambda_;
  double ewma_;
  double decay_ = 1.0;  // (1 - lambda)^(2i) after i steps
};

/// The Page-Hinkley recursion on reference statistics (mu, sigma):
/// the running cumulative deviation with its minimum and maximum.
class PageHinkleyCore {
 public:
  explicit PageHinkleyCore(double delta, const ReferenceStats& ref = {})
      : ref_(ref), delta_(delta) {}

  /// This delta on `ref`, with the recursion at its start.
  PageHinkleyCore WithReference(const ReferenceStats& ref) const {
    return PageHinkleyCore(delta_, ref);
  }
  const ReferenceStats& reference() const { return ref_; }

  /// Adds x's standardized deviation and returns the larger one-sided
  /// statistic: upward drift pushes cum above its running minimum,
  /// downward drift pulls it below its running maximum.
  double Step(double x) {
    const double z = (x - ref_.mu) / ref_.sigma;
    cum_ += z - delta_;
    cum_min_ = std::min(cum_min_, cum_);
    cum_max_ = std::max(cum_max_, cum_);
    return std::max(cum_ - cum_min_, cum_max_ - cum_);
  }

  /// Snapshot codec for the recursion state (cum, min, max).
  void PutState(ByteWriter* writer) const;
  Status GetState(ByteReader* reader);

 private:
  ReferenceStats ref_;
  double delta_;
  double cum_ = 0.0;
  double cum_min_ = 0.0;
  double cum_max_ = 0.0;
};

/// EWMA chart: score[i] = |ewma[i] - mu| / (sigma * limit[i]) where
/// limit is the exact time-dependent EWMA standard error
/// sqrt(lambda/(2-lambda) * (1 - (1-lambda)^(2i))). Scores above 1
/// correspond to points outside the classic L-sigma control limits
/// when multiplied by L.
class EwmaChartDetector : public AnomalyDetector {
 public:
  /// `lambda` in (0, 1]: the EWMA smoothing factor (0.2 is the
  /// textbook default).
  explicit EwmaChartDetector(double lambda = 0.2);

  std::string_view name() const override { return name_; }
  using AnomalyDetector::Score;
  Result<std::vector<double>> Score(const Series& series,
                                    std::size_t train_length) const override;

  double lambda() const { return lambda_; }

 private:
  double lambda_;
  std::string name_;
};

/// Page-Hinkley: m_t = sum_{i<=t} (x_i - mean - delta); score[i] =
/// max over both one-sided statistics (m_t - min m, max m - m_t),
/// normalized by sigma. Detects sustained drifts rather than point
/// outliers.
class PageHinkleyDetector : public AnomalyDetector {
 public:
  /// `delta` is the magnitude tolerance in sigma units.
  explicit PageHinkleyDetector(double delta = 0.05);

  std::string_view name() const override { return name_; }
  using AnomalyDetector::Score;
  Result<std::vector<double>> Score(const Series& series,
                                    std::size_t train_length) const override;

  double delta() const { return delta_; }

 private:
  double delta_;
  std::string name_;
};

}  // namespace tsad

#endif  // TSAD_DETECTORS_CONTROL_CHART_H_
