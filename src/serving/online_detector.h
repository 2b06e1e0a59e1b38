// The incremental detector interface behind the serving engine.
//
// An OnlineDetector consumes a stream one value at a time and emits
// scores under a strict replay contract: feeding it the points of a
// series in order and concatenating everything it emits reproduces the
// batch AnomalyDetector::Score() output for that series BYTE FOR BYTE —
// same doubles, same bits, including after a Snapshot()/Restore() pair
// anywhere mid-stream. tests/serving/online_adapters_test.cc enforces
// this for every adapter.
//
// Scores are emitted as (index, score) pairs rather than a plain value
// per Observe() because batch semantics are not always one-in-one-out:
//
//  * reference-statistics detectors (CUSUM, EWMA, Page-Hinkley) cannot
//    score anything until the training prefix completes, then emit the
//    whole buffered prefix at once;
//  * the one-liner family uses centered moving windows (margin at t
//    needs a few future points) and pads index 0 with the GLOBAL
//    minimum margin, so index 0 is only known at Flush();
//  * streaming discord emits nothing while the first subsequence fills.
//
// The protocol: across all Observe() calls plus the final Flush(),
// every index in [0, observed()) is emitted exactly once. Emission is
// in increasing index order with the single documented exception of the
// one-liner's index 0 at Flush(). ReplayScore() assembles and checks
// the dense vector.

#ifndef TSAD_SERVING_ONLINE_DETECTOR_H_
#define TSAD_SERVING_ONLINE_DETECTOR_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/series.h"
#include "common/status.h"

namespace tsad {

/// One emitted score: `index` is the 0-based position in the stream.
struct ScoredPoint {
  std::size_t index = 0;
  double score = 0.0;

  friend bool operator==(const ScoredPoint& a, const ScoredPoint& b) {
    return a.index == b.index && a.score == b.score;
  }
};

/// Incremental anomaly detector. Not thread-safe; the serving engine
/// serializes all access to an instance.
class OnlineDetector {
 public:
  virtual ~OnlineDetector() = default;

  /// Stable name, "online:" + the batch detector's name.
  virtual std::string_view name() const = 0;

  /// Consumes the next point, APPENDING any scores that became final to
  /// `out` (which is not cleared). Once an error is returned the
  /// detector is in an unspecified state and must be discarded or
  /// Restore()d.
  virtual Status Observe(double value, std::vector<ScoredPoint>* out) = 0;

  /// Declares end-of-stream, appending every not-yet-emitted score.
  /// Returns the batch path's error when the stream is too short for
  /// the detector (e.g. streaming discord with fewer than m+1 points).
  virtual Status Flush(std::vector<ScoredPoint>* out) = 0;

  /// Serializes the full detector state. Restoring the blob into a
  /// fresh instance built from the same spec continues the stream with
  /// bit-identical emissions.
  virtual Result<std::string> Snapshot() const = 0;
  virtual Status Restore(std::string_view blob) = 0;

  /// Approximate bytes of memory this detector holds (object plus heap
  /// buffers, counted at capacity). The serving engine rolls these up
  /// against its engine-wide memory budget and cold-evicts streams when
  /// the total exceeds it; an adapter that under-reports starves the
  /// budget silently, so adapters account for every growable buffer.
  /// It also bounds Snapshot().size(), which is how the engine sizes
  /// its failover blob up front.
  virtual std::size_t MemoryFootprint() const { return sizeof(*this); }

  /// Points consumed so far.
  std::size_t observed() const { return observed_; }

 protected:
  std::size_t observed_ = 0;
};

/// Replays `series` through `detector` (Observe each point, then
/// Flush) and assembles the dense score vector, enforcing the
/// exactly-once emission protocol: any missing, duplicate or
/// out-of-range index is an Internal error.
Result<std::vector<double>> ReplayScore(OnlineDetector& detector,
                                        const Series& series);

/// The assembly step of ReplayScore, shared with the serving engine:
/// scatters `points` into a dense vector of length `n`, enforcing the
/// exactly-once protocol. `stream` labels error messages.
Result<std::vector<double>> AssembleScores(
    const std::vector<ScoredPoint>& points, std::size_t n,
    std::string_view stream);

}  // namespace tsad

#endif  // TSAD_SERVING_ONLINE_DETECTOR_H_
