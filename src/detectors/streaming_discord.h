// Streaming (causal) discord detector: each point is scored by the
// left-matrix-profile value of the subsequence ENDING at it — the
// distance to the nearest past subsequence at the moment the window
// completes. Unlike the offline DiscordDetector, the score at time t
// uses only data up to t, which is the streaming setting the Numenta
// benchmark (§2.2, Fig 2) was built for.
//
// The first occurrence of any new behavior scores high and later
// repetitions score low — so on warm-up data the track is noisy by
// nature, and callers should treat the first few hundred points as
// burn-in (the NAB probationary period).
//
// Score() steps StreamingDiscordCore — StreamingMpx without eviction
// rather than the batch left profile, plus the burn-in — over the
// series, and the serving layer's online adapter steps the same core
// point by point, so the two are bit-identical by construction.

#ifndef TSAD_DETECTORS_STREAMING_DISCORD_H_
#define TSAD_DETECTORS_STREAMING_DISCORD_H_

#include <cstddef>
#include <cstdint>

#include "common/wire.h"
#include "detectors/detector.h"
#include "substrates/streaming_mpx.h"

namespace tsad {

/// The streaming discord step core: a StreamingMpx kernel of
/// subsequence length m with the default m/2 exclusion and no eviction
/// (buffer_cap = 0), so every entry's left profile sees the whole past,
/// and the burn-in. It holds the whole stream.
class StreamingDiscordCore {
 public:
  /// Requires m >= 3 (StreamingDiscordDetector::MakeCore checks it).
  StreamingDiscordCore(std::size_t m, std::size_t burn_in);

  /// Pushes x and returns the left-profile distance of the subsequence
  /// x completes, or 0 during burn-in, before the first window
  /// completes, or while no eligible past neighbor exists.
  double Step(double x);

  /// Bytes held by the kernel; grows with the stream.
  std::size_t MemoryBytes() const { return kernel_.MemoryBytes(); }

  /// The end-of-stream length rule: a stream of n points must hold at
  /// least 2 subsequences.
  Status CheckLength(std::size_t n) const;

  /// This core's parameters at the start of a stream.
  StreamingDiscordCore Fresh() const {
    return StreamingDiscordCore(kernel_.config().m, burn_in_);
  }

  /// Snapshot codec: the burn-in, then the kernel. Deserialize expects
  /// a Fresh() core and refuses a blob written with another burn-in.
  void Serialize(ByteWriter* writer) const;
  Status Deserialize(ByteReader* reader, std::uint64_t seen);

 private:
  StreamingMpx kernel_;
  std::size_t burn_in_;
};

class StreamingDiscordDetector : public AnomalyDetector {
 public:
  /// `m` is the subsequence length and must be >= 3 (enforced by
  /// Score(): with the conventional exclusion zone m/2, shorter windows
  /// admit adjacent-offset trivial matches and the profile degenerates
  /// to near-zero everywhere). `burn_in` points at the start are forced
  /// to score 0; passing 0 — the default — means "use the default
  /// burn-in of 4*m points", NOT "no burn-in". To genuinely disable
  /// burn-in, pass 1 (only point 0 is suppressed, and no subsequence
  /// completes there anyway for m >= 2).
  explicit StreamingDiscordDetector(std::size_t m, std::size_t burn_in = 0);

  std::string_view name() const override { return name_; }
  using AnomalyDetector::Score;
  Result<std::vector<double>> Score(const Series& series,
                                    std::size_t train_length) const override;

  /// The core Score() steps and the online adapter serves;
  /// InvalidArgument when m < 3.
  Result<StreamingDiscordCore> MakeCore() const;

  /// The resolved burn-in (never 0: the constructor maps 0 to 4*m).
  std::size_t burn_in() const { return burn_in_; }

 private:
  std::size_t m_;
  std::size_t burn_in_;
  std::string name_;
};

}  // namespace tsad

#endif  // TSAD_DETECTORS_STREAMING_DISCORD_H_
