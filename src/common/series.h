// Core data types for labeled time series benchmarks.
//
// The unit of evaluation throughout this library is the LabeledSeries:
// a univariate series, an optional training prefix, and ground-truth
// anomaly regions. A BenchmarkDataset is a named collection of labeled
// series (e.g., "Yahoo A1"), and a MultivariateSeries models OMNI/SMD
// style machine telemetry (many aligned dimensions sharing one label
// track).

#ifndef TSAD_COMMON_SERIES_H_
#define TSAD_COMMON_SERIES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace tsad {

/// A univariate time series is a plain vector of doubles; the library
/// uses this alias everywhere for readability.
using Series = std::vector<double>;

/// A contiguous ground-truth anomaly, as a half-open index interval
/// [begin, end) into the series it annotates. A point anomaly at index
/// i is {i, i + 1}.
struct AnomalyRegion {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t length() const { return end - begin; }
  bool contains(std::size_t i) const { return i >= begin && i < end; }

  friend bool operator==(const AnomalyRegion& a, const AnomalyRegion& b) {
    return a.begin == b.begin && a.end == b.end;
  }
};

/// Sorts regions by begin and merges overlapping or touching regions.
/// Empty regions (begin >= end) are dropped.
std::vector<AnomalyRegion> NormalizeRegions(std::vector<AnomalyRegion> regions);

/// Converts a binary 0/1 label vector into the (normalized) list of
/// contiguous anomaly regions.
std::vector<AnomalyRegion> RegionsFromBinary(const std::vector<uint8_t>& labels);

/// Converts regions into a binary label vector of length n. Regions
/// extending past n are clipped.
std::vector<uint8_t> BinaryFromRegions(const std::vector<AnomalyRegion>& regions,
                                       std::size_t n);

/// A univariate series with ground-truth anomaly labels.
///
/// `train_length` is the length of the prefix designated as anomaly-free
/// training data (0 means the benchmark provides no training split). In
/// UCR-archive style datasets, exactly one anomaly region exists and it
/// lies entirely after the training prefix.
class LabeledSeries {
 public:
  LabeledSeries() = default;
  LabeledSeries(std::string name, Series values,
                std::vector<AnomalyRegion> anomalies,
                std::size_t train_length = 0)
      : name_(std::move(name)),
        values_(std::move(values)),
        anomalies_(NormalizeRegions(std::move(anomalies))),
        train_length_(train_length) {}

  const std::string& name() const { return name_; }
  const Series& values() const { return values_; }
  Series& mutable_values() { return values_; }
  const std::vector<AnomalyRegion>& anomalies() const { return anomalies_; }
  std::size_t train_length() const { return train_length_; }
  std::size_t length() const { return values_.size(); }

  void set_name(std::string name) { name_ = std::move(name); }
  void set_train_length(std::size_t n) { train_length_ = n; }
  /// Replaces the anomaly regions (they are normalized on the way in).
  void set_anomalies(std::vector<AnomalyRegion> anomalies) {
    anomalies_ = NormalizeRegions(std::move(anomalies));
  }

  /// True if index i falls inside any ground-truth anomaly region.
  bool IsAnomalous(std::size_t i) const;

  /// Binary label vector of the same length as the series.
  std::vector<uint8_t> BinaryLabels() const {
    return BinaryFromRegions(anomalies_, values_.size());
  }

  /// Total number of points labeled anomalous.
  std::size_t NumAnomalousPoints() const;

  /// Structural validation: ValidateLabels, then values finite.
  Status Validate() const;

  /// Labels within bounds, train prefix within bounds and anomaly-free:
  /// what the CSV reader checks, since resilient: specs impute NaN.
  Status ValidateLabels() const;

 private:
  std::string name_;
  Series values_;
  std::vector<AnomalyRegion> anomalies_;  // normalized: sorted, disjoint
  std::size_t train_length_ = 0;
};

/// OMNI/SMD-style multivariate telemetry: d aligned dimensions of equal
/// length sharing one ground-truth label track.
class MultivariateSeries {
 public:
  MultivariateSeries() = default;
  MultivariateSeries(std::string name, std::vector<Series> dimensions,
                     std::vector<AnomalyRegion> anomalies,
                     std::size_t train_length = 0)
      : name_(std::move(name)),
        dimensions_(std::move(dimensions)),
        anomalies_(NormalizeRegions(std::move(anomalies))),
        train_length_(train_length) {}

  const std::string& name() const { return name_; }
  const std::vector<Series>& dimensions() const { return dimensions_; }
  const std::vector<AnomalyRegion>& anomalies() const { return anomalies_; }
  std::size_t train_length() const { return train_length_; }

  std::size_t num_dimensions() const { return dimensions_.size(); }
  /// Length of each dimension (they are required to agree). 0 if empty.
  std::size_t length() const {
    return dimensions_.empty() ? 0 : dimensions_.front().size();
  }

  /// Extracts one dimension as a LabeledSeries sharing the label track.
  /// Returns InvalidArgument if dim is out of range.
  Result<LabeledSeries> Dimension(std::size_t dim) const;

  /// Structural validation: all dimensions equal length, labels in
  /// bounds, values finite.
  Status Validate() const;

 private:
  std::string name_;
  std::vector<Series> dimensions_;
  std::vector<AnomalyRegion> anomalies_;
  std::size_t train_length_ = 0;
};

/// A named collection of labeled series: one benchmark (sub-)archive.
struct BenchmarkDataset {
  std::string name;
  std::vector<LabeledSeries> series;

  std::size_t size() const { return series.size(); }

  /// Validates every member series.
  Status Validate() const;
};

}  // namespace tsad

#endif  // TSAD_COMMON_SERIES_H_
