// Online adapters: one OnlineDetector per batch detector whose math is
// causal enough to stream. Each causal detector has one scoring core
// that its batch Score() runs as a loop and its adapter steps point by
// point, so replay is bit-identical by construction, not merely close:
//
//  * the per-point detectors (moving z-score, streaming discord,
//    FLOSS) score every point as it arrives from a step core
//    (MovingZScoreCore, StreamingDiscordCore, FlossCore), served by one
//    adapter template in online_adapters.cc that MakeOnlineDetector
//    builds;
//  * the reference-statistics detectors step CusumCore, EwmaChartCore
//    or PageHinkleyCore once their training prefix is fitted;
//  * the one-liner composes its window moments and margin per index
//    (OneLinerMarginAt), as batch does a track at a time.
//
// An adapter only buffers what its core cannot score yet, orders the
// emissions, frames snapshots and accounts memory. MERLIN is acausal:
// its adapter runs the batch detector at Flush().
//
// Build adapters through MakeOnlineDetector(), which parses the same
// spec grammar as the batch registry and rejects configurations whose
// batch path is NOT causal (e.g. the reference-statistics detectors
// without a training prefix fall back to whole-series median/MAD).

#ifndef TSAD_SERVING_ONLINE_ADAPTERS_H_
#define TSAD_SERVING_ONLINE_ADAPTERS_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "detectors/oneliner.h"
#include "serving/online_detector.h"

namespace tsad {

/// Builds the online counterpart of `spec` (batch registry grammar,
/// e.g. "zscore:w=64" or "streaming:m=96"). `train_length` is the
/// anomaly-free prefix length the stream's batch equivalent would be
/// scored with.
///
/// A "resilient:<inner>" spec builds the inner adapter wrapped in
/// OnlineSanitizer — per-point input hardening (see its class comment),
/// the serving-path counterpart of the batch ResilientDetector.
///
///  * NotFound / InvalidArgument: bad spec (same errors as the batch
///    registry, including the "did you mean" hint).
///  * FailedPrecondition: cusum/ewma/pagehinkley with train_length < 8
///    — their batch fallback (whole-series median/MAD) is not causal.
///  * Unimplemented: a valid batch detector with no online adapter.
Result<std::unique_ptr<OnlineDetector>> MakeOnlineDetector(
    const std::string& spec, std::size_t train_length);

/// Spec names MakeOnlineDetector accepts.
std::vector<std::string> OnlineCapableDetectorNames();

/// The reference-statistics family, for Core = CusumCore,
/// EwmaChartCore or PageHinkleyCore: buffers the training prefix, fits
/// it with FitReferenceStats and drains the buffer through a core on
/// those statistics, emitting the whole prefix at once. If the stream
/// ends before the prefix completes, Flush() fits what was seen — the
/// batch path's own fallback (median / scaled MAD) when
/// train_length > n — so equivalence holds there too.
template <typename Core>
class ReferenceStatsOnline : public OnlineDetector {
 public:
  /// `core` carries the detector's parameters; its reference statistics
  /// are replaced once the prefix is fitted.
  ReferenceStatsOnline(std::string name, const Core& core,
                       std::size_t train_length)
      : name_(std::move(name)), train_length_(train_length), core_(core) {}

  std::string_view name() const override { return name_; }
  Status Observe(double value, std::vector<ScoredPoint>* out) override;
  Status Flush(std::vector<ScoredPoint>* out) override;
  Result<std::string> Snapshot() const override;
  Status Restore(std::string_view blob) override;
  std::size_t MemoryFootprint() const override {
    return sizeof(*this) + name_.capacity() +
           buffer_.capacity() * sizeof(double);
  }

 private:
  void Drain(std::vector<ScoredPoint>* out);

  std::string name_;
  std::size_t train_length_;
  bool trained_ = false;
  std::vector<double> buffer_;  // the not-yet-scored prefix
  Core core_;
};

/// One-liner margin scores through the shared OneLinerMarginAt.
/// Margins live in the diff domain with MATLAB-centered moving
/// windows, so the margin at diff index j is final once `(k-1)/2`
/// future points have arrived (emitted with lag), and index 0 of the
/// original series — padded with the GLOBAL minimum margin by the
/// batch path — is emitted at Flush(). The prefix sums over the diff
/// track grow by AppendPrefixSums, in append order, as the batch pass
/// builds them.
class OnlineOneLiner : public OnlineDetector {
 public:
  OnlineOneLiner(std::string name, const OneLinerParams& params);

  std::string_view name() const override { return name_; }
  Status Observe(double value, std::vector<ScoredPoint>* out) override;
  Status Flush(std::vector<ScoredPoint>* out) override;
  Result<std::string> Snapshot() const override;
  Status Restore(std::string_view blob) override;
  std::size_t MemoryFootprint() const override {
    return sizeof(*this) + name_.capacity() +
           d_.capacity() * sizeof(double) +
           (sums_.capacity() + sq_.capacity()) * sizeof(long double);
  }

 private:
  // Emits every margin whose window is complete, or all of them when
  // the stream has ended.
  void Emit(bool ended, std::vector<ScoredPoint>* out);

  std::string name_;
  OneLinerParams params_;
  std::size_t after_;      // future points a centered window needs
  double prev_ = 0.0;      // last raw value (diff source)
  std::vector<double> d_;  // diff series (after abs, when enabled)
  std::vector<long double> sums_;  // prefix sums over d_, size |d_|+1
  std::vector<long double> sq_;
  std::size_t emitted_ = 0;  // margins emitted so far (diff indices)
  double run_min_ = 0.0;     // running global minimum margin
};

/// MERLIN multi-length discord scoring as a servable stream. MERLIN is
/// acausal — every length's top discord needs the whole series — so
/// this adapter buffers the stream and emits EVERYTHING at Flush():
/// one MerlinSweep (the same search the batch detector runs) over the
/// buffered points, byte-identical to batch by construction. The cost
/// model is explicit: MemoryFootprint() grows
/// linearly with the stream (the buffer is the state), so merlin
/// streams are first in line for the engine's memory-budget eviction —
/// which is fine, because a cold-evicted buffer thaws byte-exactly.
class OnlineMerlin : public OnlineDetector {
 public:
  OnlineMerlin(std::string name, std::size_t min_length,
               std::size_t max_length);

  std::string_view name() const override { return name_; }
  Status Observe(double value, std::vector<ScoredPoint>* out) override;
  Status Flush(std::vector<ScoredPoint>* out) override;
  Result<std::string> Snapshot() const override;
  Status Restore(std::string_view blob) override;
  std::size_t MemoryFootprint() const override {
    return sizeof(*this) + name_.capacity() +
           buffer_.capacity() * sizeof(double);
  }

 private:
  std::string name_;
  std::size_t min_length_;
  std::size_t max_length_;
  std::vector<double> buffer_;  // the whole stream so far
};

/// The serving-path counterpart of the batch `resilient:` decorator:
/// per-point input sanitization in front of any online adapter. Each
/// arriving value that is non-finite or equals the missing-data
/// sentinel kDefaultSentinel is imputed causally (last observation carried forward; 0
/// before the first good point) before the inner adapter sees it.
///
/// Contract: feeding this wrapper a dirty stream is byte-identical to
/// feeding the inner adapter the sanitized stream — true by
/// construction, and what keeps the replay guarantee meaningful for
/// hardened streams. It is NOT byte-identical to the batch
/// ResilientDetector (whose sanitizer sees the whole series and may
/// interpolate through a gap using future points — not causal), which
/// is exactly why the batch decorator cannot be served directly.
class OnlineSanitizer : public OnlineDetector {
 public:
  explicit OnlineSanitizer(std::unique_ptr<OnlineDetector> inner);

  std::string_view name() const override { return name_; }
  Status Observe(double value, std::vector<ScoredPoint>* out) override;
  Status Flush(std::vector<ScoredPoint>* out) override;
  Result<std::string> Snapshot() const override;
  Status Restore(std::string_view blob) override;
  std::size_t MemoryFootprint() const override {
    return sizeof(*this) + name_.capacity() + inner_->MemoryFootprint();
  }

  /// Points imputed so far (telemetry).
  std::size_t points_patched() const { return points_patched_; }

 private:
  std::unique_ptr<OnlineDetector> inner_;
  std::string name_;
  double last_good_ = 0.0;
  bool have_good_ = false;
  std::size_t points_patched_ = 0;
};

}  // namespace tsad

#endif  // TSAD_SERVING_ONLINE_ADAPTERS_H_
