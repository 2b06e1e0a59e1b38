#include "common/series.h"

#include <algorithm>
#include <cmath>

namespace tsad {

std::vector<AnomalyRegion> NormalizeRegions(
    std::vector<AnomalyRegion> regions) {
  std::erase_if(regions,
                [](const AnomalyRegion& r) { return r.begin >= r.end; });
  std::sort(regions.begin(), regions.end(),
            [](const AnomalyRegion& a, const AnomalyRegion& b) {
              return a.begin < b.begin;
            });
  std::vector<AnomalyRegion> merged;
  for (const AnomalyRegion& r : regions) {
    if (!merged.empty() && r.begin <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, r.end);
    } else {
      merged.push_back(r);
    }
  }
  return merged;
}

std::vector<AnomalyRegion> RegionsFromBinary(
    const std::vector<uint8_t>& labels) {
  std::vector<AnomalyRegion> regions;
  std::size_t i = 0;
  const std::size_t n = labels.size();
  while (i < n) {
    if (labels[i]) {
      std::size_t begin = i;
      while (i < n && labels[i]) ++i;
      regions.push_back({begin, i});
    } else {
      ++i;
    }
  }
  return regions;
}

std::vector<uint8_t> BinaryFromRegions(
    const std::vector<AnomalyRegion>& regions, std::size_t n) {
  std::vector<uint8_t> labels(n, 0);
  for (const AnomalyRegion& r : regions) {
    for (std::size_t i = r.begin; i < r.end && i < n; ++i) labels[i] = 1;
  }
  return labels;
}

bool LabeledSeries::IsAnomalous(std::size_t i) const {
  // anomalies_ is sorted and disjoint: binary search by begin.
  auto it = std::upper_bound(
      anomalies_.begin(), anomalies_.end(), i,
      [](std::size_t x, const AnomalyRegion& r) { return x < r.begin; });
  if (it == anomalies_.begin()) return false;
  return std::prev(it)->contains(i);
}

std::size_t LabeledSeries::NumAnomalousPoints() const {
  std::size_t total = 0;
  for (const AnomalyRegion& r : anomalies_) {
    std::size_t end = std::min(r.end, values_.size());
    if (r.begin < end) total += end - r.begin;
  }
  return total;
}

Status LabeledSeries::Validate() const {
  TSAD_RETURN_IF_ERROR(ValidateLabels());
  for (double v : values_) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument("series '" + name_ +
                                     "': contains non-finite value");
    }
  }
  return Status::OK();
}

Status LabeledSeries::ValidateLabels() const {
  for (const AnomalyRegion& r : anomalies_) {
    if (r.end > values_.size()) {
      return Status::InvalidArgument(
          "series '" + name_ + "': anomaly region [" +
          std::to_string(r.begin) + ", " + std::to_string(r.end) +
          ") exceeds series length " + std::to_string(values_.size()));
    }
  }
  if (train_length_ > values_.size()) {
    return Status::InvalidArgument(
        "series '" + name_ + "': train_length " +
        std::to_string(train_length_) + " exceeds series length " +
        std::to_string(values_.size()));
  }
  if (!anomalies_.empty() && anomalies_.front().begin < train_length_) {
    return Status::InvalidArgument(
        "series '" + name_ + "': anomaly at " +
        std::to_string(anomalies_.front().begin) +
        " lies inside the training prefix of length " +
        std::to_string(train_length_));
  }
  return Status::OK();
}

Result<LabeledSeries> MultivariateSeries::Dimension(std::size_t dim) const {
  if (dim >= dimensions_.size()) {
    return Status::InvalidArgument(
        "dimension " + std::to_string(dim) + " out of range (have " +
        std::to_string(dimensions_.size()) + ")");
  }
  return LabeledSeries(name_ + "/dim" + std::to_string(dim), dimensions_[dim],
                       anomalies_, train_length_);
}

Status MultivariateSeries::Validate() const {
  const std::size_t n = length();
  for (std::size_t d = 0; d < dimensions_.size(); ++d) {
    if (dimensions_[d].size() != n) {
      return Status::InvalidArgument(
          "multivariate series '" + name_ + "': dimension " +
          std::to_string(d) + " has length " +
          std::to_string(dimensions_[d].size()) + ", expected " +
          std::to_string(n));
    }
    for (double v : dimensions_[d]) {
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("multivariate series '" + name_ +
                                       "': non-finite value in dimension " +
                                       std::to_string(d));
      }
    }
  }
  for (const AnomalyRegion& r : anomalies_) {
    if (r.end > n) {
      return Status::InvalidArgument("multivariate series '" + name_ +
                                     "': anomaly region out of bounds");
    }
  }
  if (train_length_ > n) {
    return Status::InvalidArgument("multivariate series '" + name_ +
                                   "': train_length out of bounds");
  }
  return Status::OK();
}

Status BenchmarkDataset::Validate() const {
  for (const LabeledSeries& s : series) {
    TSAD_RETURN_IF_ERROR(s.Validate());
  }
  return Status::OK();
}

}  // namespace tsad
