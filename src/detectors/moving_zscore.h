// Classic trailing moving z-score detector — the kind of "decades-old
// simple method" (§4.5) that the paper argues should be the baseline
// any new proposal must beat.

#ifndef TSAD_DETECTORS_MOVING_ZSCORE_H_
#define TSAD_DETECTORS_MOVING_ZSCORE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/vector_ops.h"
#include "common/wire.h"
#include "detectors/detector.h"

namespace tsad {

/// The moving z-score recursion, one point at a time: batch Score and
/// the online adapter both step it. The trailing window lives in a
/// ring that grows with the stream up to `window` points, so a huge
/// window costs nothing before its points arrive; the window sums are
/// long-double running totals.
class MovingZScoreCore {
 public:
  explicit MovingZScoreCore(std::size_t window) : window_(window) {}

  /// Scores x by |x - mean| / std over the previous `window` points
  /// (std floored at kMinStd), then slides x into the window. Scores 0
  /// until `window` points have been seen.
  double Step(double x) {
    if (ring_.size() < window_) return Fill(x);
    const WindowMoments w =
        MomentsFromSums(sum_, sq_, static_cast<long double>(window_));
    const double score = std::fabs(x - w.mean) / std::max(kMinStd, w.stddev);
    // Slide: the delta `x - old` is formed in double before widening
    // to the long-double sum.
    const double old = ring_[head_];
    sum_ += x - old;
    sq_ += static_cast<long double>(x) * x -
           static_cast<long double>(old) * old;
    ring_[head_] = x;
    if (++head_ == window_) head_ = 0;
    return score;
  }

  /// Heap bytes held (the ring at capacity).
  std::size_t MemoryBytes() const { return ring_.capacity() * sizeof(double); }

  /// Any stream length can be scored: the first `window` points score 0.
  Status CheckLength(std::size_t /*n*/) const { return Status::OK(); }

  /// This window at the start of a stream.
  MovingZScoreCore Fresh() const { return MovingZScoreCore(window_); }

  /// Snapshot codec: the window sums, then the ring. Deserialize needs
  /// the number of points stepped so far and rejects a ring whose size
  /// is not min(seen, window).
  void Serialize(ByteWriter* writer) const;
  Status Deserialize(ByteReader* reader, std::uint64_t seen);

 private:
  // Floors the window std so flat history does not give infinite scores.
  static constexpr double kMinStd = 1e-9;

  // Step inside the first window: accumulates x and scores 0.
  double Fill(double x);

  std::size_t window_;
  std::size_t head_ = 0;  // ring slot of the oldest point, once full
  long double sum_ = 0.0L;
  long double sq_ = 0.0L;
  std::vector<double> ring_;
};

/// Scores each point by |x[i] - mean| / std over the trailing window of
/// `window` points (excluding x[i] itself). The first `window` points
/// receive score 0 (insufficient history).
class MovingZScoreDetector : public AnomalyDetector {
 public:
  /// `window` is raised to 2 if smaller.
  explicit MovingZScoreDetector(std::size_t window);

  std::string_view name() const override { return name_; }
  using AnomalyDetector::Score;
  Result<std::vector<double>> Score(const Series& series,
                                    std::size_t train_length) const override;

  std::size_t window() const { return window_; }

 private:
  std::size_t window_;
  std::string name_;
};

}  // namespace tsad

#endif  // TSAD_DETECTORS_MOVING_ZSCORE_H_
