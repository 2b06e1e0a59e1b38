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
  return StepScores(CusumCore(drift_, reset_threshold_,
                              FitReferenceStats(series, train_length)),
                    series);
}

}  // namespace tsad
