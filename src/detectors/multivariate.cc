#include "detectors/multivariate.h"

#include <algorithm>

#include "common/vector_ops.h"

namespace tsad {

Result<std::vector<double>> ScoreMultivariate(
    const AnomalyDetector& detector, const MultivariateSeries& machine) {
  const std::size_t n = machine.length();
  if (machine.num_dimensions() == 0 || n == 0) {
    return Status::InvalidArgument("empty multivariate series");
  }
  std::vector<double> aggregated(n, 0.0);
  std::size_t used = 0;
  Status first_error = Status::OK();
  for (std::size_t d = 0; d < machine.num_dimensions(); ++d) {
    Result<std::vector<double>> scores =
        detector.Score(machine.dimensions()[d], machine.train_length());
    if (!scores.ok()) {
      if (first_error.ok()) first_error = scores.status();
      continue;
    }
    // Z-scale so heterogeneous channels contribute comparably.
    std::vector<double> z = ZNormalize(std::move(scores.value()));
    ++used;
    for (std::size_t i = 0; i < n; ++i) {
      aggregated[i] = used == 1 ? z[i] : std::max(aggregated[i], z[i]);
    }
  }
  if (used == 0) {
    return first_error.ok()
               ? Status::Internal("no dimension produced scores")
               : first_error;
  }
  return aggregated;
}

}  // namespace tsad
