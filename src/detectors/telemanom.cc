#include "detectors/telemanom.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

#include "common/vector_ops.h"

namespace tsad {

namespace {

// Solves the symmetric positive-definite system A w = b in place via
// Gaussian elimination with partial pivoting (A is small: order+1).
// Returns false if the system is numerically singular.
bool SolveLinearSystem(std::vector<std::vector<double>>& a,
                       std::vector<double>& b) {
  const std::size_t n = b.size();
  for (std::size_t col = 0; col < n; ++col) {
    // Pivot.
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    }
    if (std::fabs(a[pivot][col]) < 1e-12) return false;
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    // Eliminate below.
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a[r][col] / a[col][col];
      if (f == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a[r][c] -= f * a[col][c];
      b[r] -= f * b[col];
    }
  }
  // Back substitution.
  for (std::size_t i = n; i-- > 0;) {
    double acc = b[i];
    for (std::size_t c = i + 1; c < n; ++c) acc -= a[i][c] * b[c];
    b[i] = acc / a[i][i];
  }
  return true;
}

}  // namespace

Result<ArPredictor> ArPredictor::Fit(const Series& train, std::size_t order,
                                     double ridge) {
  if (order == 0) return Status::InvalidArgument("AR order must be >= 1");
  if (train.size() < order + 9) {
    return Status::InvalidArgument(
        "training series too short: need > order + 8 = " +
        std::to_string(order + 8) + " points, have " +
        std::to_string(train.size()));
  }

  // Design matrix rows: [1, x[t-1], ..., x[t-order]] -> target x[t].
  // Normal equations: (X^T X + ridge*I') w = X^T y, with no penalty on
  // the intercept.
  const std::size_t p = order + 1;  // intercept + lags
  std::vector<std::vector<double>> xtx(p, std::vector<double>(p, 0.0));
  std::vector<double> xty(p, 0.0);

  std::vector<double> row(p);
  for (std::size_t t = order; t < train.size(); ++t) {
    row[0] = 1.0;
    for (std::size_t j = 0; j < order; ++j) row[j + 1] = train[t - 1 - j];
    const double y = train[t];
    for (std::size_t i = 0; i < p; ++i) {
      xty[i] += row[i] * y;
      for (std::size_t j = i; j < p; ++j) xtx[i][j] += row[i] * row[j];
    }
  }
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < i; ++j) xtx[i][j] = xtx[j][i];
  }
  for (std::size_t i = 1; i < p; ++i) xtx[i][i] += ridge;

  std::vector<double> w = xty;
  if (!SolveLinearSystem(xtx, w)) {
    return Status::Internal("AR fit: singular normal equations");
  }
  const double intercept = w[0];
  w.erase(w.begin());
  return ArPredictor(order, std::move(w), intercept);
}

std::vector<double> ArPredictor::Predict(const Series& series) const {
  std::vector<double> pred(series.size());
  const std::size_t warmup = std::min(order_, series.size());
  for (std::size_t i = 0; i < warmup; ++i) pred[i] = series[i];
  for (std::size_t t = order_; t < series.size(); ++t) {
    double acc = intercept_;
    for (std::size_t j = 0; j < order_; ++j) {
      acc += weights_[j] * series[t - 1 - j];
    }
    pred[t] = acc;
  }
  return pred;
}

TelemanomDetector::TelemanomDetector(TelemanomConfig config)
    : config_(config) {
  std::ostringstream n;
  n << "Telemanom[AR(" << config_.ar_order << "),alpha=" << config_.ewma_alpha
    << "]";
  name_ = n.str();
}

Result<std::vector<double>> TelemanomDetector::Score(
    const Series& series, std::size_t train_length) const {
  if (train_length <= config_.ar_order + 8) {
    return Status::FailedPrecondition(
        "Telemanom requires a training prefix longer than ar_order + 8 (" +
        std::to_string(config_.ar_order + 8) + "); got " +
        std::to_string(train_length));
  }
  if (train_length > series.size()) {
    return Status::InvalidArgument("train_length exceeds series length");
  }
  const Series train(series.begin(),
                     series.begin() + static_cast<std::ptrdiff_t>(train_length));
  TSAD_ASSIGN_OR_RETURN(const ArPredictor predictor,
                        ArPredictor::Fit(train, config_.ar_order,
                                         config_.ridge));

  const std::vector<double> pred = predictor.Predict(series);
  std::vector<double> errors(series.size());
  for (std::size_t i = 0; i < series.size(); ++i) {
    errors[i] = std::fabs(series[i] - pred[i]);
  }
  return Ewma(errors, config_.ewma_alpha);
}

}  // namespace tsad
