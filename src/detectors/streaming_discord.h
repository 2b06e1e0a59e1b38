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
// Score() replays the series through StreamingMpx without eviction
// (StreamingDiscordKernelConfig) rather than the batch left profile,
// so the batch path and the serving layer's point-at-a-time
// OnlineStreamingDiscord adapter are bit-identical by construction.

#ifndef TSAD_DETECTORS_STREAMING_DISCORD_H_
#define TSAD_DETECTORS_STREAMING_DISCORD_H_

#include <cstddef>

#include "detectors/detector.h"
#include "substrates/streaming_mpx.h"

namespace tsad {

/// The kernel both the batch detector and the online adapter advance:
/// subsequence length m, the default m/2 exclusion, no eviction
/// (buffer_cap = 0), so every entry's left profile sees the whole past.
StreamingMpxConfig StreamingDiscordKernelConfig(std::size_t m);

/// The score of the point that completes the newest subsequence of
/// `kernel` at stream index `t`: that subsequence's left-profile
/// distance, or 0 during burn-in (t < burn_in), before the first window
/// completes, or while no eligible past neighbor exists.
double StreamingDiscordScore(const StreamingMpx& kernel, std::size_t t,
                             std::size_t burn_in);

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

  std::size_t subsequence_length() const { return m_; }
  /// The resolved burn-in (never 0: the constructor maps 0 to 4*m).
  std::size_t burn_in() const { return burn_in_; }

 private:
  std::size_t m_;
  std::size_t burn_in_;
  std::string name_;
};

}  // namespace tsad

#endif  // TSAD_DETECTORS_STREAMING_DISCORD_H_
