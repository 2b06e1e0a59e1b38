#include "datasets/yahoo.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "datasets/generators.h"

namespace tsad {

namespace {

// ---------------------------------------------------------------------------
// Calibrated composition fractions. Each kind is constructed to be
// reliably solvable (or not) by its target equation form, so the
// sub-benchmark solve rates land near Table 1 of the paper:
//   A1: 65.7% ((3) 44.8%, (4) 20.9%)   A2: 97% ((3) 40%, (4) 57%)
//   A3: 98%   ((5) 84%,   (6) 14%)     A4: 77% ((5) 39%, (6) 38%)
// ---------------------------------------------------------------------------

struct Composition {
  double global_fraction;    // kind (3) for A1/A2, kind (5) for A3/A4
  double adaptive_fraction;  // kind (4) for A1/A2, kind (6) for A3/A4
  // Remainder is hard.
};

constexpr Composition kA1Composition{0.448, 0.209};
constexpr Composition kA2Composition{0.400, 0.570};
constexpr Composition kA3Composition{0.840, 0.140};
constexpr Composition kA4Composition{0.390, 0.380};

// End bias of the A1 anomaly positions (§2.5's run-to-failure flaw).
constexpr double kRunToFailureBias = 0.75;

YahooSeriesKind PickKind(std::size_t index, std::size_t total,
                         const Composition& comp) {
  // Deterministic striping: assign kinds by index so fractions are
  // matched exactly (not just in expectation).
  const double t = (static_cast<double>(index) + 0.5) /
                   static_cast<double>(total);
  // Interleave via a fixed permutation driven by the golden ratio so
  // the kinds are spread through the archive rather than blocked.
  const double u = std::fmod(t * 0.6180339887498949 * static_cast<double>(total),
                             1.0);
  if (u < comp.global_fraction) return YahooSeriesKind::kGlobalSpikes;
  if (u < comp.global_fraction + comp.adaptive_fraction) {
    return YahooSeriesKind::kAdaptiveSpikes;
  }
  return YahooSeriesKind::kHard;
}

// Envelope that ramps linearly from 1 to `peak` across the series.
double EnvelopeAt(std::size_t i, std::size_t n, double peak) {
  if (n <= 1) return 1.0;
  return 1.0 + (peak - 1.0) * static_cast<double>(i) /
                   static_cast<double>(n - 1);
}

// ---------------------------------------------------------------------------
// A1/A2 series bodies (abs-diff regime: smooth seasonality, Gaussian
// noise; anomalies are point spikes).
// ---------------------------------------------------------------------------

// "Global spikes": homoscedastic noise, spikes far above every normal
// |diff| -> solvable with abs(diff(TS)) > b, equation (3).
LabeledSeries MakeGlobalSpikeSeries(const std::string& name, std::size_t n,
                                    double end_bias, Rng& rng,
                                    bool sandwich_pair = false) {
  const double level = rng.Uniform(50.0, 500.0);
  const double season_amp = level * rng.Uniform(0.05, 0.15);
  const double noise_std = level * rng.Uniform(0.01, 0.03);
  const double period = 24.0;

  Series x = Mix({LinearTrend(n, level, 0.0),
                  Sinusoid(n, period, season_amp, rng.Uniform(0.0, 6.28)),
                  GaussianNoise(n, noise_std, rng)});

  // Largest normal |diff|: seasonal slope + a generous noise tail.
  const double max_normal_diff =
      season_amp * 6.2832 / period + 5.0 * noise_std * 1.4142;

  std::vector<AnomalyRegion> anomalies;
  const std::size_t num_anomalies =
      sandwich_pair ? 2 : static_cast<std::size_t>(rng.UniformInt(1, 3));
  std::size_t last_pos = 0;
  for (std::size_t a = 0; a < num_anomalies; ++a) {
    std::size_t pos;
    if (sandwich_pair && a == 1) {
      pos = last_pos + 2;  // two anomalies sandwiching one normal point
    } else {
      pos = PickPosition(rng, n / 10, n - 2, 1, end_bias);
      // Keep anomalies apart (except the deliberate sandwich).
      bool clash = false;
      for (const AnomalyRegion& r : anomalies) {
        if (pos + 30 > r.begin && r.begin + 30 > pos) clash = true;
      }
      if (clash) continue;
    }
    const double sign = rng.Bernoulli(0.5) ? 1.0 : -1.0;
    const double magnitude =
        sign * max_normal_diff * rng.Uniform(3.0, 5.0);
    anomalies.push_back(InjectSpike(x, pos, magnitude));
    last_pos = pos;
  }
  return LabeledSeries(name, std::move(x), std::move(anomalies));
}

// "Adaptive spikes": the noise scale ramps up ~7x across the series
// and spikes are sized ~12x the LOCAL scale, with the first one pinned
// to the low-envelope opening fifth. A global threshold (3) is then
// impossible — the pinned spike (<= ~29 local-sigma in absolute terms)
// sits below the late normal |diff| tail (~34 sigma at envelope 7) —
// while the locally adaptive equation (4) (movmean + c*movstd with a
// long window to dodge self-masking) succeeds.
LabeledSeries MakeAdaptiveSpikeSeries(const std::string& name, std::size_t n,
                                      double end_bias, Rng& rng) {
  const double level = rng.Uniform(50.0, 500.0);
  const double base_noise = level * rng.Uniform(0.01, 0.02);
  const double envelope_peak = rng.Uniform(6.5, 8.0);

  Series x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double env = EnvelopeAt(i, n, envelope_peak);
    x[i] = level + rng.Gaussian(0.0, base_noise * env);
  }

  std::vector<AnomalyRegion> anomalies;
  // One anomaly pinned to the low-envelope opening fifth (this is what
  // defeats the global threshold), plus 0-2 more anywhere.
  const std::size_t extra = static_cast<std::size_t>(rng.UniformInt(0, 2));
  for (std::size_t a = 0; a < 1 + extra; ++a) {
    std::size_t pos;
    if (a == 0) {
      pos = static_cast<std::size_t>(rng.UniformInt(
          static_cast<int64_t>(n / 20), static_cast<int64_t>(n / 6)));
    } else {
      pos = PickPosition(rng, n / 4, n - 2, 1, end_bias);
    }
    bool clash = false;
    for (const AnomalyRegion& r : anomalies) {
      if (pos + 160 > r.begin && r.begin + 160 > pos) clash = true;
    }
    if (clash) continue;
    const double env = EnvelopeAt(pos, n, envelope_peak);
    const double sign = rng.Bernoulli(0.5) ? 1.0 : -1.0;
    const double magnitude =
        sign * base_noise * env * rng.Uniform(10.5, 12.5);
    anomalies.push_back(InjectSpike(x, pos, magnitude));
  }
  return LabeledSeries(name, std::move(x), std::move(anomalies));
}

// "Hard": the anomaly is a gentle contextual hump or a sub-noise level
// shift — invisible in the diff domain, so no one-liner of the family
// can separate it.
LabeledSeries MakeHardSeries(const std::string& name, std::size_t n,
                             double end_bias, Rng& rng) {
  const double level = rng.Uniform(50.0, 500.0);
  const double season_amp = level * rng.Uniform(0.05, 0.15);
  const double noise_std = level * rng.Uniform(0.01, 0.03);

  Series x = Mix({LinearTrend(n, level, 0.0),
                  Sinusoid(n, 24.0, season_amp, rng.Uniform(0.0, 6.28)),
                  GaussianNoise(n, noise_std, rng)});

  std::vector<AnomalyRegion> anomalies;
  const std::size_t pos = PickPosition(rng, n / 5, n - 100, 80, end_bias);
  if (rng.Bernoulli(0.5)) {
    // Smooth hump, amplitude ~2 sigma spread over 80 points: per-step
    // diff contribution ~0.08 sigma — far inside the noise. Labeled
    // Yahoo-style as a short point label at the crest (wide labels
    // would hand a brute force ~100 chances to overfit a noise maximum
    // inside the allowed zone).
    InjectSmoothHump(x, pos, 80, 2.0 * noise_std *
                                     (rng.Bernoulli(0.5) ? 1.0 : -1.0));
    anomalies.push_back({pos + 39, pos + 42});
  } else {
    // Level shift of ~1.2 sigma: a single extra diff of 1.2 sigma hides
    // deep inside the ~5-sigma noise tail.
    anomalies.push_back(InjectLevelShift(
        x, pos, 1.2 * noise_std * (rng.Bernoulli(0.5) ? 1.0 : -1.0), 3));
  }
  return LabeledSeries(name, std::move(x), std::move(anomalies));
}

// ---------------------------------------------------------------------------
// A3/A4 series bodies (signed-diff regime: sawtooth seasonality whose
// steep descents defeat abs(diff); anomalies are upward spikes riding
// the rise phase).
// ---------------------------------------------------------------------------

// A cycle-structured sawtooth with RANDOM per-cycle fall steepness:
// each ~50-point cycle rises slowly then plunges over 2-10 points. The
// chaotic descent magnitudes make the abs(diff) domain inseparable (no
// movmean/movstd window can track them), while the signed positive
// direction stays pristine — exactly the regime where the paper's
// forms (5)/(6) are the only working one-liners.
struct SawtoothBody {
  Series values;
  std::vector<AnomalyRegion> rise_segments;  // safe spike positions
  double amplitude = 1.0;                    // base amplitude
};

// Adds "fast-drop, slow-recovery" dips as NORMAL texture: one point
// plunges by `depth` and the level eases back over ~15 points. In the
// abs(diff) domain a dip is an isolated large entry — the exact
// signature of an anomalous spike — so any (3)/(4) threshold that
// catches the spikes also false-fires on the dips. In the signed
// domain the dip's diff is negative and its recovery steps are tiny,
// so (5)/(6) are untouched. This is what confines A3/A4 to the signed
// forms, as in the paper's Table 1.
void AddNormalDips(Series& x, std::size_t count, double base_depth,
                   double envelope_peak,
                   const std::vector<AnomalyRegion>& keep_clear, Rng& rng) {
  const std::size_t n = x.size();
  for (std::size_t d = 0; d < count; ++d) {
    const std::size_t pos = static_cast<std::size_t>(rng.UniformInt(
        static_cast<int64_t>(n / 30), static_cast<int64_t>(n - 30)));
    bool clash = false;
    for (const AnomalyRegion& r : keep_clear) {
      if (pos + 220 > r.begin && r.begin + 220 > pos) clash = true;
    }
    if (clash) continue;
    const double env = EnvelopeAt(pos, n, envelope_peak);
    const double depth = base_depth * env * rng.Uniform(1.0, 1.8);
    const std::size_t recovery = 15;
    for (std::size_t i = 0; i < recovery && pos + i < n; ++i) {
      const double t = static_cast<double>(i) /
                       static_cast<double>(recovery);
      x[pos + i] -= depth * (1.0 - t);
    }
  }
}

SawtoothBody BuildRandomSawtooth(std::size_t n, double amplitude,
                                 double envelope_peak, double noise_std,
                                 Rng& rng) {
  SawtoothBody body;
  body.amplitude = amplitude;
  body.values.reserve(n + 64);
  const std::size_t period = 50;
  while (body.values.size() < n) {
    const std::size_t start = body.values.size();
    const std::size_t fall_len =
        static_cast<std::size_t>(rng.UniformInt(2, 10));
    const std::size_t rise_len = period - fall_len;
    const double env = EnvelopeAt(start, n, envelope_peak);
    const double a = amplitude * env * rng.Uniform(0.98, 1.02);
    for (std::size_t i = 0; i < rise_len; ++i) {
      const double t = static_cast<double>(i) /
                       static_cast<double>(rise_len - 1);
      body.values.push_back(a * (t - 0.5) +
                            rng.Gaussian(0.0, noise_std * env));
    }
    for (std::size_t i = 1; i <= fall_len; ++i) {
      const double t = static_cast<double>(i) /
                       static_cast<double>(fall_len);
      body.values.push_back(a * (0.5 - t) +
                            rng.Gaussian(0.0, noise_std * env));
    }
    // Safe spike zone: strictly inside the rise, away from both edges.
    if (start + 6 < start + rise_len - 6) {
      body.rise_segments.push_back({start + 6, start + rise_len - 6});
    }
  }
  body.values.resize(n);
  return body;
}

// Picks a spike position inside a rise segment whose start lies in
// [lo, hi). Falls back to the first viable segment.
std::size_t PickRisePosition(const SawtoothBody& body, std::size_t lo,
                             std::size_t hi, Rng& rng) {
  std::vector<const AnomalyRegion*> viable;
  for (const AnomalyRegion& seg : body.rise_segments) {
    if (seg.begin >= lo && seg.begin < hi) viable.push_back(&seg);
  }
  if (viable.empty() && !body.rise_segments.empty()) {
    viable.push_back(&body.rise_segments.front());
  }
  if (viable.empty()) return lo;
  const AnomalyRegion& seg = *viable[static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<int64_t>(viable.size()) - 1))];
  return static_cast<std::size_t>(rng.UniformInt(
      static_cast<int64_t>(seg.begin), static_cast<int64_t>(seg.end - 1)));
}

// Kind (5): constant-amplitude random-fall sawtooth + up-spikes. The
// spike's +0.08-0.10 A jump towers over every normal positive diff
// (~+0.023 A rises), so diff(TS) > b solves it; the 0.1-0.5 A chaotic
// descents sink (3) and (4).
LabeledSeries MakeSawtoothSpikeSeries(const std::string& name, std::size_t n,
                                      Rng& rng) {
  const double amplitude = rng.Uniform(0.8, 1.2);
  SawtoothBody body = BuildRandomSawtooth(n, amplitude, /*envelope_peak=*/1.0,
                                          amplitude * 0.004, rng);
  std::vector<AnomalyRegion> anomalies;
  const std::size_t num_anomalies =
      static_cast<std::size_t>(rng.UniformInt(1, 3));
  for (std::size_t a = 0; a < num_anomalies; ++a) {
    const std::size_t pos = PickRisePosition(body, n / 10, n - 2, rng);
    bool clash = false;
    for (const AnomalyRegion& r : anomalies) {
      if (pos + 60 > r.begin && r.begin + 60 > pos) clash = true;
    }
    if (clash) continue;
    anomalies.push_back(
        InjectSpike(body.values, pos, amplitude * rng.Uniform(0.08, 0.10)));
  }
  AddNormalDips(body.values, 8, amplitude * 0.10, /*envelope_peak=*/1.0,
                anomalies, rng);
  return LabeledSeries(name, std::move(body.values), std::move(anomalies));
}

// Kind (6): random-fall sawtooth whose amplitude ramps ~7x, spikes
// sized ~3.5x the LOCAL rise step with the first pinned to the
// low-envelope opening eighth. Late normal rises out-jump the early
// spike, so the global (5) fails; the adaptive signed form (6) —
// movmean absorbing the local slope, movstd suppressing the descent
// edges — succeeds.
LabeledSeries MakeAdaptiveSawtoothSeries(const std::string& name,
                                         std::size_t n, Rng& rng) {
  const double amplitude = rng.Uniform(0.8, 1.2);
  const double envelope_peak = rng.Uniform(6.5, 8.0);
  SawtoothBody body = BuildRandomSawtooth(n, amplitude, envelope_peak,
                                          amplitude * 0.004, rng);
  std::vector<AnomalyRegion> anomalies;
  const std::size_t extra = static_cast<std::size_t>(rng.UniformInt(0, 2));
  for (std::size_t a = 0; a < 1 + extra; ++a) {
    const std::size_t lo = a == 0 ? n / 20 : n / 4;
    const std::size_t hi = a == 0 ? n / 8 : n - 2;
    const std::size_t pos = PickRisePosition(body, lo, hi, rng);
    bool clash = false;
    for (const AnomalyRegion& r : anomalies) {
      if (pos + 120 > r.begin && r.begin + 120 > pos) clash = true;
    }
    if (clash) continue;
    const double env = EnvelopeAt(pos, n, envelope_peak);
    anomalies.push_back(InjectSpike(
        body.values, pos, amplitude * env * rng.Uniform(0.075, 0.095)));
  }
  AddNormalDips(body.values, 8, amplitude * 0.09, envelope_peak, anomalies,
                rng);
  return LabeledSeries(name, std::move(body.values), std::move(anomalies));
}

// Hard A3/A4 series: a seam-continuous local time warp (the cycles run
// slow for a while) or a gentle contextual hump — nothing any
// diff-threshold form can isolate.
LabeledSeries MakeHardSawtoothSeries(const std::string& name, std::size_t n,
                                     Rng& rng) {
  const double amplitude = rng.Uniform(0.8, 1.2);
  SawtoothBody body = BuildRandomSawtooth(n, amplitude, /*envelope_peak=*/1.0,
                                          amplitude * 0.004, rng);
  std::vector<AnomalyRegion> anomalies;
  const std::size_t pos = PickPosition(rng, n / 3, n - 200, 150, 0.3);
  if (rng.Bernoulli(0.5)) {
    // Label only the onset of the warp, Yahoo changepoint style.
    InjectTimeWarp(body.values, pos, 150, 1.5);
    anomalies.push_back({pos, pos + 5});
  } else {
    InjectSmoothHump(body.values, pos, 120,
                     amplitude * 0.04 * (rng.Bernoulli(0.5) ? 1.0 : -1.0));
    anomalies.push_back({pos + 59, pos + 62});
  }
  AddNormalDips(body.values, 6, amplitude * 0.08, /*envelope_peak=*/1.0,
                anomalies, rng);
  return LabeledSeries(name, std::move(body.values), std::move(anomalies));
}

// ---------------------------------------------------------------------------
// A1 mislabel specials (paper Figs 4-7 and the duplicate pair).
// ---------------------------------------------------------------------------

// Fig 4 (A1-Real32): one long constant region; the first half is
// labeled anomalous, the second half — the same flat line — is not.
LabeledSeries MakeHalfLabeledConstant(const std::string& name, std::size_t n,
                                      Rng& rng, PlantedDefect* defect) {
  LabeledSeries base = MakeGlobalSpikeSeries(name, n, 0.5, rng);
  Series x = base.values();
  const std::size_t pos = n / 2;
  const std::size_t width = 60;
  InjectFreeze(x, pos, width);
  std::vector<AnomalyRegion> anomalies = base.anomalies();
  // Drop any anomaly colliding with the freeze, then label only the
  // first half of the constant region.
  std::erase_if(anomalies, [&](const AnomalyRegion& r) {
    return r.begin + 5 > pos && pos + width + 5 > r.end;
  });
  anomalies.push_back({pos, pos + width / 2});
  defect->series_name = name;
  defect->kind = "half-labeled-constant";
  defect->position = pos + width / 2;  // first unlabeled flat point
  return LabeledSeries(name, std::move(x), std::move(anomalies));
}

// Fig 5 (A1-Real46): two essentially identical dropouts; only the
// first is labeled.
LabeledSeries MakeUnlabeledTwinDropout(const std::string& name, std::size_t n,
                                       Rng& rng, PlantedDefect* defect) {
  const double level = rng.Uniform(100.0, 300.0);
  const double season_amp = level * 0.1;
  const double noise_std = level * 0.01;
  Series x = Mix({LinearTrend(n, level, 0.0),
                  Sinusoid(n, 24.0, season_amp, rng.Uniform(0.0, 6.28)),
                  GaussianNoise(n, noise_std, rng)});
  const double floor_value = level - 4.0 * season_amp;
  const std::size_t pos_c = n / 3;  // labeled dropout "C"
  // Unlabeled twin "D": a whole number of seasonal periods later, so
  // the two dropouts sit in identical local context (the paper's Fig 5
  // shows them overlaid, matching one-to-one).
  const std::size_t pos_d = pos_c + 24 * (n / 72);
  std::vector<AnomalyRegion> anomalies;
  anomalies.push_back(InjectDropout(x, pos_c, 1, floor_value));
  InjectDropout(x, pos_d, 1, floor_value);  // not labeled!
  defect->series_name = name;
  defect->kind = "unlabeled-twin-dropout";
  defect->position = pos_d;
  return LabeledSeries(name, std::move(x), std::move(anomalies));
}

// Fig 6 (A1-Real47): a labeled "rounded bottom" region that is
// statistically identical to ~48 unlabeled ones, plus one genuine
// labeled dropout.
LabeledSeries MakeFalseRoundedBottom(const std::string& name, std::size_t n,
                                     Rng& rng, PlantedDefect* defect) {
  // |sin| seasonality: every cycle has a rounded bottom.
  const double level = rng.Uniform(100.0, 300.0);
  const double amp = level * 0.2;
  const double period = 30.0;
  const double noise_std = level * 0.005;
  Series x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double s =
        std::fabs(std::sin(3.14159265 * static_cast<double>(i) / period));
    x[i] = level + amp * s + rng.Gaussian(0.0, noise_std);
  }
  std::vector<AnomalyRegion> anomalies;
  // Genuine dropout "E".
  const std::size_t pos_e = n / 4;
  anomalies.push_back(InjectDropout(x, pos_e, 1, level - 3.0 * amp));
  // "F": label an ordinary rounded bottom near 60% of the series.
  const std::size_t cycle = static_cast<std::size_t>(
      std::floor(0.6 * static_cast<double>(n) / period));
  const std::size_t bottom =
      static_cast<std::size_t>(static_cast<double>(cycle) * period);
  const AnomalyRegion f{bottom, std::min(n, bottom + 10)};
  anomalies.push_back(f);
  defect->series_name = name;
  defect->kind = "false-positive-label";
  defect->position = f.begin;
  return LabeledSeries(name, std::move(x), std::move(anomalies));
}

// Fig 7 (A1-Real67): a dramatic regime change followed by rapid
// label toggling instead of one contiguous labeled region.
LabeledSeries MakeTogglingLabels(const std::string& name, std::size_t n,
                                 Rng& rng, PlantedDefect* defect) {
  const double level = rng.Uniform(100.0, 300.0);
  const double amp = level * 0.15;
  const double noise_std = level * 0.005;
  const std::size_t change = (3 * n) / 4;
  Series x(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v;
    if (i < change) {
      v = level + amp * std::sin(6.2832 * static_cast<double>(i) / 24.0);
    } else {
      // Post-change: faster, larger, offset oscillation.
      v = level + 2.5 * amp +
          2.0 * amp * std::sin(6.2832 * static_cast<double>(i) / 7.0);
    }
    x[i] = v + rng.Gaussian(0.0, noise_std);
  }
  // Toggling labels: 3-on / 3-off for 60 points after the change.
  std::vector<AnomalyRegion> anomalies;
  for (std::size_t off = 0; off < 60; off += 6) {
    anomalies.push_back({change + off, std::min(n, change + off + 3)});
  }
  defect->series_name = name;
  defect->kind = "toggling-labels";
  defect->position = change;
  return LabeledSeries(name, std::move(x), std::move(anomalies));
}

}  // namespace

YahooArchive GenerateYahooArchive(const YahooConfig& config) {
  YahooArchive archive;
  archive.a1.name = "Yahoo A1";
  archive.a2.name = "Yahoo A2";
  archive.a3.name = "Yahoo A3";
  archive.a4.name = "Yahoo A4";
  Rng master(config.seed);

  // ---- A1: 67 "real" series with planted mislabel specials. --------------
  // Special indices follow the paper's figures (1-based naming).
  for (std::size_t i = 0; i < config.a1_count; ++i) {
    const std::size_t id = i + 1;
    const std::string name = "A1-Real" + std::to_string(id);
    Rng rng = master.Fork(1000 + i);
    PlantedDefect defect;
    switch (id) {
      case 13: {
        // Duplicate pair: Real15 re-uses Real13's fork (see below).
        archive.a1.series.push_back(
            MakeGlobalSpikeSeries(name, config.a1_length,
                                  kRunToFailureBias, rng));
        archive.a1_kinds.push_back(YahooSeriesKind::kMislabelSpecial);
        continue;
      }
      case 15: {
        // Same generator state as Real13 -> near-duplicate dataset.
        Rng dup = master.Fork(1000 + 12);  // Real13's stream
        LabeledSeries copy = MakeGlobalSpikeSeries(
            name, config.a1_length, kRunToFailureBias, dup);
        archive.a1.series.push_back(copy);
        archive.a1_kinds.push_back(YahooSeriesKind::kMislabelSpecial);
        archive.planted_defects.push_back(
            {name, "duplicate-of-A1-Real13", 0});
        continue;
      }
      case 32:
        archive.a1.series.push_back(MakeHalfLabeledConstant(
            name, config.a1_length, rng, &defect));
        archive.a1_kinds.push_back(YahooSeriesKind::kMislabelSpecial);
        archive.planted_defects.push_back(defect);
        continue;
      case 46:
        archive.a1.series.push_back(MakeUnlabeledTwinDropout(
            name, config.a1_length, rng, &defect));
        archive.a1_kinds.push_back(YahooSeriesKind::kMislabelSpecial);
        archive.planted_defects.push_back(defect);
        continue;
      case 47:
        archive.a1.series.push_back(MakeFalseRoundedBottom(
            name, config.a1_length, rng, &defect));
        archive.a1_kinds.push_back(YahooSeriesKind::kMislabelSpecial);
        archive.planted_defects.push_back(defect);
        continue;
      case 67:
        archive.a1.series.push_back(
            MakeTogglingLabels(name, config.a1_length, rng, &defect));
        archive.a1_kinds.push_back(YahooSeriesKind::kMislabelSpecial);
        archive.planted_defects.push_back(defect);
        continue;
      default:
        break;
    }
    const YahooSeriesKind kind = PickKind(i, config.a1_count, kA1Composition);
    switch (kind) {
      case YahooSeriesKind::kGlobalSpikes:
        // Series #1 carries the Fig 3 "two anomalies sandwiching one
        // normal point" density quirk.
        archive.a1.series.push_back(MakeGlobalSpikeSeries(
            name, config.a1_length, kRunToFailureBias, rng,
            /*sandwich_pair=*/id == 1));
        break;
      case YahooSeriesKind::kAdaptiveSpikes:
        archive.a1.series.push_back(MakeAdaptiveSpikeSeries(
            name, config.a1_length, kRunToFailureBias, rng));
        break;
      default:
        archive.a1.series.push_back(MakeHardSeries(
            name, config.a1_length, kRunToFailureBias, rng));
        break;
    }
    archive.a1_kinds.push_back(kind);
  }

  // ---- A2: 100 synthetic, abs-diff regime. -------------------------------
  for (std::size_t i = 0; i < config.a2_count; ++i) {
    const std::string name = "A2-synthetic-" + std::to_string(i + 1);
    Rng rng = master.Fork(2000 + i);
    const YahooSeriesKind kind = PickKind(i, config.a2_count, kA2Composition);
    switch (kind) {
      case YahooSeriesKind::kGlobalSpikes:
        archive.a2.series.push_back(MakeGlobalSpikeSeries(
            name, config.synthetic_length, 0.4, rng));
        break;
      case YahooSeriesKind::kAdaptiveSpikes:
        archive.a2.series.push_back(MakeAdaptiveSpikeSeries(
            name, config.synthetic_length, 0.4, rng));
        break;
      default:
        archive.a2.series.push_back(
            MakeHardSeries(name, config.synthetic_length, 0.4, rng));
        break;
    }
    archive.a2_kinds.push_back(kind);
  }

  // ---- A3: 100 synthetic, signed-diff regime. ----------------------------
  for (std::size_t i = 0; i < config.a3_count; ++i) {
    const std::string name = "A3-synthetic-" + std::to_string(i + 1);
    Rng rng = master.Fork(3000 + i);
    const YahooSeriesKind kind = PickKind(i, config.a3_count, kA3Composition);
    switch (kind) {
      case YahooSeriesKind::kGlobalSpikes:
        archive.a3.series.push_back(
            MakeSawtoothSpikeSeries(name, config.synthetic_length, rng));
        break;
      case YahooSeriesKind::kAdaptiveSpikes:
        archive.a3.series.push_back(
            MakeAdaptiveSawtoothSeries(name, config.synthetic_length, rng));
        break;
      default:
        archive.a3.series.push_back(
            MakeHardSawtoothSeries(name, config.synthetic_length, rng));
        break;
    }
    archive.a3_kinds.push_back(kind);
  }

  // ---- A4: 100 synthetic, signed-diff regime + more hard changepoints. ---
  for (std::size_t i = 0; i < config.a4_count; ++i) {
    const std::string name = "A4-synthetic-" + std::to_string(i + 1);
    Rng rng = master.Fork(4000 + i);
    const YahooSeriesKind kind = PickKind(i, config.a4_count, kA4Composition);
    switch (kind) {
      case YahooSeriesKind::kGlobalSpikes:
        archive.a4.series.push_back(
            MakeSawtoothSpikeSeries(name, config.synthetic_length, rng));
        break;
      case YahooSeriesKind::kAdaptiveSpikes:
        archive.a4.series.push_back(
            MakeAdaptiveSawtoothSeries(name, config.synthetic_length, rng));
        break;
      default:
        archive.a4.series.push_back(
            MakeHardSawtoothSeries(name, config.synthetic_length, rng));
        break;
    }
    archive.a4_kinds.push_back(kind);
  }

  return archive;
}

}  // namespace tsad
