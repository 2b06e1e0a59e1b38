#include "detectors/cusum.h"

#include <sstream>

namespace tsad {

void CusumCore::PutState(ByteWriter* writer) const {
  writer->PutDouble(s_pos_);
  writer->PutDouble(s_neg_);
}

Status CusumCore::GetState(ByteReader* reader) {
  TSAD_RETURN_IF_ERROR(reader->GetDouble(&s_pos_));
  return reader->GetDouble(&s_neg_);
}

CusumDetector::CusumDetector(double drift, double reset_threshold)
    : drift_(drift), reset_threshold_(reset_threshold) {
  std::ostringstream n;
  n << "CUSUM[drift=" << drift_;
  if (reset_threshold_ > 0.0) n << ",reset=" << reset_threshold_;
  n << "]";
  name_ = n.str();
}

Result<std::vector<double>> CusumDetector::Score(
    const Series& series, std::size_t train_length) const {
  std::vector<double> scores(series.size());
  if (series.empty()) return scores;
  CusumCore core(drift_, reset_threshold_,
                 FitReferenceStats(series, train_length));
  for (std::size_t i = 0; i < series.size(); ++i) {
    scores[i] = core.Step(series[i]);
  }
  return scores;
}

}  // namespace tsad
