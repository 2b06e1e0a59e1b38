// Online adapters: one OnlineDetector per batch detector whose math is
// causal enough to stream. Each adapter replicates its batch Score()
// loop operation for operation — same accumulator widths (long double
// rolling sums), same cast points, same clamps, in the same order — so
// replay is bit-identical, not merely close. See each class comment for
// the specific trick.
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

#include "common/wire.h"
#include "detectors/floss.h"
#include "detectors/oneliner.h"
#include "serving/online_detector.h"
#include "substrates/streaming_mpx.h"

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

/// Trailing moving z-score over a ring buffer of the last `window`
/// points; the rolling long-double sum/square-sum updates mirror the
/// batch slide (`sum += x_new - x_old` with the subtraction in double)
/// exactly. Emits one score per point, 0 for the first `window`.
class OnlineMovingZScore : public OnlineDetector {
 public:
  OnlineMovingZScore(std::string name, std::size_t window, double min_std);

  std::string_view name() const override { return name_; }
  Status Observe(double value, std::vector<ScoredPoint>* out) override;
  Status Flush(std::vector<ScoredPoint>* out) override;
  Result<std::string> Snapshot() const override;
  Status Restore(std::string_view blob) override;
  std::size_t MemoryFootprint() const override {
    return sizeof(*this) + name_.capacity() +
           ring_.capacity() * sizeof(double);
  }

 private:
  std::size_t window_;
  double min_std_;
  std::string name_;
  std::vector<double> ring_;
  long double sum_ = 0.0L;
  long double sq_ = 0.0L;
};

/// Base for the reference-statistics family (CUSUM / EWMA chart /
/// Page-Hinkley): buffers the training prefix, then computes mu/sigma
/// exactly as the batch path does and drains the buffer through the
/// recursion, emitting the whole prefix at once. If the stream ends
/// before the prefix completes, Flush() reproduces the batch fallback
/// (median / scaled MAD over what was seen) — the batch path does the
/// same when train_length > n, so equivalence holds there too.
class ReferenceStatsOnline : public OnlineDetector {
 public:
  std::string_view name() const override { return name_; }
  Status Observe(double value, std::vector<ScoredPoint>* out) override;
  Status Flush(std::vector<ScoredPoint>* out) override;
  Result<std::string> Snapshot() const override;
  Status Restore(std::string_view blob) override;
  std::size_t MemoryFootprint() const override {
    return sizeof(*this) + name_.capacity() +
           buffer_.capacity() * sizeof(double);
  }

 protected:
  ReferenceStatsOnline(std::string name, std::size_t train_length);

  /// Advances the recursion by one point and returns its score.
  virtual double Step(double value) = 0;
  /// Recursion-state codec (reference stats and buffer are handled by
  /// the base).
  virtual void PutState(ByteWriter* writer) const = 0;
  virtual Status GetState(ByteReader* reader) = 0;

  double mu_ = 0.0;
  double sigma_ = 1e-9;

 private:
  void Drain(bool causal, std::vector<ScoredPoint>* out);

  std::string name_;
  std::size_t train_length_;
  bool trained_ = false;
  std::vector<double> buffer_;  // the not-yet-scored prefix
};

/// Two-sided CUSUM (batch recursion: S+/S- with drift and optional
/// reset), reference stats from the training prefix.
class OnlineCusum : public ReferenceStatsOnline {
 public:
  OnlineCusum(std::string name, double drift, double reset_threshold,
              std::size_t train_length);

 protected:
  double Step(double value) override;
  void PutState(ByteWriter* writer) const override;
  Status GetState(ByteReader* reader) override;

 private:
  double drift_;
  double reset_threshold_;
  double s_pos_ = 0.0;
  double s_neg_ = 0.0;
};

/// EWMA control chart with the exact time-dependent standard error
/// (the (1-lambda)^(2i) decay is carried as a running product, exactly
/// like the batch loop).
class OnlineEwmaChart : public ReferenceStatsOnline {
 public:
  OnlineEwmaChart(std::string name, double lambda, std::size_t train_length);

 protected:
  double Step(double value) override;
  void PutState(ByteWriter* writer) const override;
  Status GetState(ByteReader* reader) override;

 private:
  double lambda_;
  double ewma_ = 0.0;
  double decay_ = 1.0;
  bool started_ = false;  // ewma_/decay_ seeded from mu_ on first Step
};

/// Page-Hinkley drift statistic (running cum/min/max).
class OnlinePageHinkley : public ReferenceStatsOnline {
 public:
  OnlinePageHinkley(std::string name, double delta, std::size_t train_length);

 protected:
  double Step(double value) override;
  void PutState(ByteWriter* writer) const override;
  Status GetState(ByteReader* reader) override;

 private:
  double delta_;
  double cum_ = 0.0;
  double cum_min_ = 0.0;
  double cum_max_ = 0.0;
};

/// One-liner margin scores. Margins live in the diff domain with
/// MATLAB-centered moving windows, so the margin at diff index j is
/// final once `(k-1)/2` future points have arrived (emitted with lag),
/// and index 0 of the original series — padded with the GLOBAL minimum
/// margin by the batch path — is emitted at Flush(). The long-double
/// prefix sums over the diff series grow in append order, matching
/// MovMean/MovStd bit for bit.
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
  double MarginAt(std::size_t j, std::size_t nd) const;
  void EmitReady(std::vector<ScoredPoint>* out);

  std::string name_;
  OneLinerParams params_;
  std::size_t after_;      // future points a centered window needs
  bool need_window_;       // movmean/movstd actually used?
  double prev_ = 0.0;      // last raw value (diff source)
  std::vector<double> d_;  // diff series (after abs, when enabled)
  std::vector<long double> sums_;  // prefix sums over d_, size |d_|+1
  std::vector<long double> sq_;
  std::size_t emitted_ = 0;  // margins emitted so far (diff indices)
  double run_min_ = 0.0;     // running global minimum margin
};

/// Streaming discord: wraps the no-eviction StreamingMpx kernel (which
/// the batch StreamingDiscordDetector::Score also replays through — the
/// equivalence is by construction, see detectors/streaming_discord.h).
/// Emits one score per point; burn-in and non-finite entries score 0.
class OnlineStreamingDiscord : public OnlineDetector {
 public:
  OnlineStreamingDiscord(std::string name, std::size_t m,
                         std::size_t burn_in);

  std::string_view name() const override { return name_; }
  Status Observe(double value, std::vector<ScoredPoint>* out) override;
  Status Flush(std::vector<ScoredPoint>* out) override;
  Result<std::string> Snapshot() const override;
  Status Restore(std::string_view blob) override;
  std::size_t MemoryFootprint() const override {
    return sizeof(*this) + name_.capacity() + kernel_.MemoryBytes();
  }

 private:
  std::string name_;
  std::size_t m_;
  std::size_t burn_in_;
  StreamingMpx kernel_;
};

/// FLOSS regime-change scoring: wraps the shared FlossCore (which the
/// batch FlossDetector::Score also replays through — byte-identical by
/// construction). Emits exactly one score per point. Unlike the
/// left-profile adapters, MemoryFootprint() is CONSTANT over the
/// stream's lifetime — the streaming-MPX ring buffer is reserved to
/// its maximum at construction — so a floss stream's serving cost
/// never grows, which is what makes profile-based detectors feasible
/// under the engine's memory budget at fleet scale.
class OnlineFloss : public OnlineDetector {
 public:
  OnlineFloss(std::string name, const FlossParams& params);

  std::string_view name() const override { return name_; }
  Status Observe(double value, std::vector<ScoredPoint>* out) override;
  Status Flush(std::vector<ScoredPoint>* out) override;
  Result<std::string> Snapshot() const override;
  Status Restore(std::string_view blob) override;
  std::size_t MemoryFootprint() const override {
    return sizeof(*this) + name_.capacity() + core_.MemoryBytes();
  }

 private:
  std::string name_;
  FlossParams params_;
  FlossCore core_;
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
/// sentinel is imputed causally (last observation carried forward; 0
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
  OnlineSanitizer(std::unique_ptr<OnlineDetector> inner, double sentinel);

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
  double sentinel_;
  double last_good_ = 0.0;
  bool have_good_ = false;
  std::size_t points_patched_ = 0;
};

}  // namespace tsad

#endif  // TSAD_SERVING_ONLINE_ADAPTERS_H_
