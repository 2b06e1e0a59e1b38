#include "datasets/gait.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "datasets/generators.h"

namespace tsad {

namespace {

// One foot-strike force profile over t in [0, 1): the classic
// double-bump "M" shape (heel-strike peak, mid-stance valley, push-off
// peak) followed by the swing phase near zero.
double FootForce(double t, double amplitude, bool left) {
  const double stance_end = left ? 0.55 : 0.62;  // weak foot: short stance
  if (t >= stance_end) {
    // Swing phase: the plate is not truly silent — a small structured
    // ripple (plate resonance / cross-talk) rides under the noise. It
    // also keeps z-normalized swing windows anchored to a repeatable
    // shape instead of being pure noise, which would make every swing
    // look maximally novel to z-normalized distances.
    const double s = (t - stance_end) / (1.0 - stance_end);
    return amplitude * 0.03 * std::sin(5.0 * 6.2831853 * s) *
           std::exp(-2.0 * s);
  }
  const double s = t / stance_end;  // position within stance
  const double heel = left ? 0.75 : 1.00;
  const double push = left ? 0.60 : 0.95;
  const double valley = left ? 0.55 : 0.70;
  double v;
  if (s < 0.25) {
    v = heel * std::sin(s / 0.25 * 1.5707963);
  } else if (s < 0.5) {
    v = heel + (valley - heel) * (s - 0.25) / 0.25;
  } else if (s < 0.75) {
    v = valley + (push - valley) * (s - 0.5) / 0.25;
  } else {
    v = push * std::cos((s - 0.75) / 0.25 * 1.5707963);
  }
  return amplitude * v;
}

// Renders one cycle of `length` samples into out.
void AppendCycle(Series& out, std::size_t length, double amplitude, bool left,
                 double phase_shift, Rng& rng) {
  for (std::size_t i = 0; i < length; ++i) {
    double t = static_cast<double>(i) / static_cast<double>(length) +
               phase_shift;
    t = std::fmod(t, 1.0);
    if (t < 0.0) t += 1.0;
    out.push_back(FootForce(t, amplitude, left) + rng.Gaussian(0.0, 0.01));
  }
}

// The weak left foot's force amplitude, against the right foot's 1.0.
constexpr double kLeftAmplitude = 0.55;
// Cycle slowdown at the plate ends, where the walker turns around.
constexpr double kTurnaroundStretch = 1.35;

}  // namespace

GaitData GenerateGaitData(const GaitConfig& config) {
  Rng rng(config.seed);
  GaitData data;

  // The anomalous cycle: random within the test span, away from the
  // split boundary and from turnarounds.
  std::size_t anomaly_cycle = 0;
  for (int tries = 0; tries < 200; ++tries) {
    anomaly_cycle = static_cast<std::size_t>(rng.UniformInt(
        static_cast<int64_t>(config.train_cycles + 2),
        static_cast<int64_t>(config.num_cycles - 3)));
    if (anomaly_cycle % kGaitTurnaroundEvery >= 2) break;
  }
  data.anomaly_cycle = anomaly_cycle;

  Series x;
  x.reserve(config.num_cycles * kGaitCycleLength * 3 / 2);
  std::size_t anomaly_begin = 0, anomaly_end = 0, train_length = 0;

  for (std::size_t c = 0; c < config.num_cycles; ++c) {
    if (c == config.train_cycles) train_length = x.size();
    const bool turnaround =
        c > 0 && c % kGaitTurnaroundEvery == 0;  // speed change cycles
    const std::size_t len =
        turnaround ? static_cast<std::size_t>(
                         static_cast<double>(kGaitCycleLength) *
                         kTurnaroundStretch)
                   : kGaitCycleLength;
    const double amp_jitter = rng.Uniform(0.97, 1.03);
    if (c == anomaly_cycle) {
      anomaly_begin = x.size();
      // The left-foot cycle swapped in, shifted by half a cycle length
      // exactly as the paper describes.
      AppendCycle(x, len, kLeftAmplitude * amp_jitter, /*left=*/true,
                  /*phase_shift=*/0.5, rng);
      anomaly_end = x.size();
    } else {
      AppendCycle(x, len, amp_jitter, /*left=*/false, 0.0, rng);
    }
  }

  const std::string name = "UCR_Anomaly_park3m_" +
                           std::to_string(train_length) + "_" +
                           std::to_string(anomaly_begin) + "_" +
                           std::to_string(anomaly_end);
  data.series = LabeledSeries(name, std::move(x),
                              {{anomaly_begin, anomaly_end}}, train_length);
  return data;
}

}  // namespace tsad
