#include "detectors/moving_zscore.h"

#include <algorithm>
#include <string>

namespace tsad {

double MovingZScoreCore::Fill(double x) {
  // No slide yet: plain accumulation. The ring grows geometrically but
  // never past the window, so a full ring holds exactly `window_`
  // points.
  sum_ += x;
  sq_ += static_cast<long double>(x) * x;
  if (ring_.size() == ring_.capacity()) {
    ring_.reserve(std::min(window_, 2 * ring_.size() + 1));
  }
  ring_.push_back(x);
  return 0.0;
}

void MovingZScoreCore::Serialize(ByteWriter* writer) const {
  writer->PutLongDouble(sum_);
  writer->PutLongDouble(sq_);
  writer->PutDoubles(ring_);
}

Status MovingZScoreCore::Deserialize(ByteReader* reader, std::uint64_t seen) {
  long double sum = 0.0L, sq = 0.0L;
  std::vector<double> ring;
  TSAD_RETURN_IF_ERROR(reader->GetLongDouble(&sum));
  TSAD_RETURN_IF_ERROR(reader->GetLongDouble(&sq));
  TSAD_RETURN_IF_ERROR(reader->GetDoubles(&ring));
  if (ring.size() != std::min<std::uint64_t>(seen, window_)) {
    return Status::InvalidArgument(
        "z-score snapshot ring holds " + std::to_string(ring.size()) +
        " points, expected min(seen, window) for seen=" +
        std::to_string(seen) + ", window=" + std::to_string(window_));
  }
  sum_ = sum;
  sq_ = sq;
  ring_ = std::move(ring);
  head_ = ring_.size() == window_ ? seen % window_ : 0;
  return Status::OK();
}

MovingZScoreDetector::MovingZScoreDetector(std::size_t window)
    : window_(std::max<std::size_t>(2, window)),
      name_("MovingZScore[w=" + std::to_string(window_) + "]") {}

Result<std::vector<double>> MovingZScoreDetector::Score(
    const Series& series, std::size_t /*train_length*/) const {
  return StepScores(MovingZScoreCore(window_), series);
}

}  // namespace tsad
