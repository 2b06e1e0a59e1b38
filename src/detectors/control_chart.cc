#include "detectors/control_chart.h"

#include <algorithm>
#include <sstream>

namespace tsad {

void EwmaChartCore::PutState(ByteWriter* writer) const {
  writer->PutDouble(ewma_);
  writer->PutDouble(decay_);
  // The layout's "started" word: set once a point has been stepped,
  // which is exactly when the decay has left 1.
  writer->PutU64(decay_ < 1.0 ? 1 : 0);
}

Status EwmaChartCore::GetState(ByteReader* reader) {
  TSAD_RETURN_IF_ERROR(reader->GetDouble(&ewma_));
  TSAD_RETURN_IF_ERROR(reader->GetDouble(&decay_));
  std::uint64_t started;
  return reader->GetU64(&started);
}

void PageHinkleyCore::PutState(ByteWriter* writer) const {
  writer->PutDouble(cum_);
  writer->PutDouble(cum_min_);
  writer->PutDouble(cum_max_);
}

Status PageHinkleyCore::GetState(ByteReader* reader) {
  TSAD_RETURN_IF_ERROR(reader->GetDouble(&cum_));
  TSAD_RETURN_IF_ERROR(reader->GetDouble(&cum_min_));
  return reader->GetDouble(&cum_max_);
}

EwmaChartDetector::EwmaChartDetector(double lambda) : lambda_(lambda) {
  lambda_ = std::clamp(lambda_, 1e-3, 1.0);
  std::ostringstream n;
  n << "EWMAChart[lambda=" << lambda_ << "]";
  name_ = n.str();
}

Result<std::vector<double>> EwmaChartDetector::Score(
    const Series& series, std::size_t train_length) const {
  return StepScores(
      EwmaChartCore(lambda_, FitReferenceStats(series, train_length)), series);
}

PageHinkleyDetector::PageHinkleyDetector(double delta) : delta_(delta) {
  std::ostringstream n;
  n << "PageHinkley[delta=" << delta_ << "]";
  name_ = n.str();
}

Result<std::vector<double>> PageHinkleyDetector::Score(
    const Series& series, std::size_t train_length) const {
  return StepScores(
      PageHinkleyCore(delta_, FitReferenceStats(series, train_length)), series);
}

}  // namespace tsad
