// Shared signal-construction blocks for the archive simulators: base
// signals (seasonal waves, random walks, trends), noise, and anomaly
// injection transforms (spikes, dropouts, level shifts, freezes, ...).
//
// All generators are pure functions of their Rng, so archives are
// reproducible bit-for-bit from a single seed.

#ifndef TSAD_DATASETS_GENERATORS_H_
#define TSAD_DATASETS_GENERATORS_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "common/series.h"

namespace tsad {

// ---------------------------------------------------------------------------
// Base signals
// ---------------------------------------------------------------------------

/// Sinusoid: amplitude * sin(2*pi*(i/period) + phase).
Series Sinusoid(std::size_t n, double period, double amplitude, double phase);

/// Gaussian random walk with per-step standard deviation `step_std`,
/// pulled back toward `level` with strength `reversion` in [0, 1).
Series MeanRevertingWalk(std::size_t n, double level, double step_std,
                         double reversion, Rng& rng);

/// Straight line from `start_value` with per-point slope.
Series LinearTrend(std::size_t n, double start_value, double slope);

/// i.i.d. Gaussian noise.
Series GaussianNoise(std::size_t n, double stddev, Rng& rng);

/// Element-wise sum of any number of equally long components
/// (asserts on length mismatch).
Series Mix(const std::vector<Series>& components);

// ---------------------------------------------------------------------------
// Anomaly injection transforms. Each mutates `x` in place and returns
// the ground-truth region it created. Positions are clipped to valid
// ranges; injectors assume the region fits (callers pick positions).
// ---------------------------------------------------------------------------

/// A single-point spike of the given (signed) magnitude at `pos`.
AnomalyRegion InjectSpike(Series& x, std::size_t pos, double magnitude);

/// A dropout: `width` points forced to `floor_value` (AspenTech's
/// -9999 style missing-data marker, §3 of the paper).
AnomalyRegion InjectDropout(Series& x, std::size_t pos, std::size_t width,
                            double floor_value);

/// Level shift: everything from `pos` on is offset by `magnitude`.
/// The labeled region is the first `label_width` points of the new
/// level.
AnomalyRegion InjectLevelShift(Series& x, std::size_t pos, double magnitude,
                               std::size_t label_width);

/// Freeze: [pos, pos+width) is replaced by the value at pos (the NASA
/// "dynamic behavior becomes frozen" anomaly of Fig 9).
AnomalyRegion InjectFreeze(Series& x, std::size_t pos, std::size_t width);

/// Smooth hump: adds half-sine of the given magnitude over the region
/// (a contextual anomaly invisible in the diff domain when gentle —
/// used for the "hard" series one-liners cannot solve).
AnomalyRegion InjectSmoothHump(Series& x, std::size_t pos, std::size_t width,
                               double magnitude);

/// Period glitch: locally stretches the dominant cycle by replacing the
/// region with a resampled (slowed) copy of itself. Subtle: preserves
/// amplitude and mean; visible only to shape-aware detectors.
AnomalyRegion InjectTimeWarp(Series& x, std::size_t pos, std::size_t width,
                             double stretch);

// ---------------------------------------------------------------------------
// Misc helpers
// ---------------------------------------------------------------------------

/// Linearly resamples `x` to `target_length` points.
Series Resample(const Series& x, std::size_t target_length);

/// Picks an injection position for an anomaly of `width` inside
/// [lo, hi), biased toward the end of the span with strength
/// `end_bias` in [0, 1]: 0 = uniform, 1 = strongly run-to-failure
/// (paper §2.5 / Fig 10).
std::size_t PickPosition(Rng& rng, std::size_t lo, std::size_t hi,
                         std::size_t width, double end_bias);

}  // namespace tsad

#endif  // TSAD_DATASETS_GENERATORS_H_
