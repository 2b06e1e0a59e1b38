#include "detectors/reference_stats.h"

#include "common/stats.h"

namespace tsad {

ReferenceStats FitReferenceStats(const std::vector<double>& series,
                                 std::size_t train_length) {
  ReferenceStats ref;
  if (train_length >= 8 && train_length <= series.size()) {
    const std::vector<double> train(
        series.begin(),
        series.begin() + static_cast<std::ptrdiff_t>(train_length));
    ref.mu = Mean(train);
    ref.sigma = StdDev(train);
  } else {
    ref.mu = Median(series);
    ref.sigma = 1.4826 * Mad(series);  // MAD -> sigma under normality
  }
  if (ref.sigma < kMinReferenceSigma) ref.sigma = kMinReferenceSigma;
  return ref;
}

}  // namespace tsad
