#include "datasets/physio.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"

namespace tsad {

namespace {

struct Wave {
  double center;  // fraction of the beat interval
  double width;   // fraction of the beat interval
  double amplitude;
};

// Normal sinus beat: P, Q, R, S, T Gaussian waves.
const Wave kNormalBeat[] = {
    {0.18, 0.030, 0.15},   // P
    {0.355, 0.012, -0.12}, // Q
    {0.380, 0.014, 1.00},  // R
    {0.405, 0.012, -0.25}, // S
    {0.600, 0.055, 0.30},  // T
};

// PVC: no P wave, wide bizarre QRS, discordant (inverted) T.
const Wave kPvcBeat[] = {
    {0.30, 0.045, -0.45},
    {0.38, 0.060, 1.30},
    {0.47, 0.050, -0.55},
    {0.64, 0.070, -0.35},
};

// Adds one beat's waves into x over [start, start+len).
void AddBeat(Series& x, std::size_t start, std::size_t len, bool pvc) {
  const Wave* waves = pvc ? kPvcBeat : kNormalBeat;
  const std::size_t count =
      pvc ? sizeof(kPvcBeat) / sizeof(Wave) : sizeof(kNormalBeat) / sizeof(Wave);
  for (std::size_t i = 0; i < len && start + i < x.size(); ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(len);
    double v = 0.0;
    for (std::size_t w = 0; w < count; ++w) {
      const double d = (t - waves[w].center) / waves[w].width;
      v += waves[w].amplitude * std::exp(-0.5 * d * d);
    }
    x[start + i] += v;
  }
}

// Pleth pulse for one beat: fast systolic upstroke, slower decay with a
// dicrotic notch. `amplitude` models stroke volume.
void AddPulse(Series& x, std::size_t start, std::size_t len,
              double amplitude) {
  for (std::size_t i = 0; i < len && start + i < x.size(); ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(len);
    double v = 0.0;
    if (t < 0.25) {
      v = std::sin(t / 0.25 * 1.5707963);  // upstroke
    } else {
      const double decay = std::exp(-(t - 0.25) * 3.0);
      const double notch_d = (t - 0.45) / 0.04;
      const double notch = 0.12 * std::exp(-0.5 * notch_d * notch_d);
      v = decay * (1.0 - 0.1 * t) + notch;
    }
    x[start + i] += amplitude * v;
  }
}

constexpr double kHeartRateBpm = 72.0;
constexpr double kNoiseStd = 0.01;     // baseline sensor noise
constexpr double kPvcFraction = 0.62;  // where (fractionally) the PVC beats

struct BeatPlan {
  std::vector<std::size_t> starts;   // beat onset sample indices
  std::vector<std::size_t> lengths;  // beat interval lengths
  std::size_t pvc_index = 0;         // which beat is the PVC
};

BeatPlan PlanBeats(std::size_t n, Rng& rng) {
  BeatPlan plan;
  const double rr_samples = kPhysioSampleRateHz * 60.0 / kHeartRateBpm;
  // First pass: nominal beat onsets with small RR variability.
  std::vector<double> onsets;
  double pos = 0.0;
  while (pos < static_cast<double>(n)) {
    onsets.push_back(pos);
    pos += rr_samples * rng.Uniform(0.96, 1.04);
  }
  // Choose the PVC beat near kPvcFraction and make it premature: its
  // onset moves 30% earlier into the preceding interval, and the next
  // beat stays put (compensatory pause).
  std::size_t pvc = static_cast<std::size_t>(
      kPvcFraction * static_cast<double>(onsets.size()));
  pvc = std::clamp<std::size_t>(pvc, 2, onsets.size() - 2);
  onsets[pvc] -= 0.30 * rr_samples;

  for (std::size_t b = 0; b < onsets.size(); ++b) {
    const double next = (b + 1 < onsets.size()) ? onsets[b + 1]
                                                : static_cast<double>(n);
    const std::size_t start = static_cast<std::size_t>(onsets[b]);
    const std::size_t len = static_cast<std::size_t>(
        std::max(8.0, next - onsets[b]));
    plan.starts.push_back(start);
    plan.lengths.push_back(len);
  }
  plan.pvc_index = pvc;
  return plan;
}

}  // namespace

LabeledSeries GenerateEcgWithPvc(const PhysioConfig& config) {
  Rng rng(config.seed);
  const std::size_t n = static_cast<std::size_t>(kPhysioSampleRateHz *
                                                 config.duration_sec);
  Series x(n, 0.0);
  const BeatPlan plan = PlanBeats(n, rng);
  for (std::size_t b = 0; b < plan.starts.size(); ++b) {
    AddBeat(x, plan.starts[b], plan.lengths[b], b == plan.pvc_index);
  }
  // Baseline wander + sensor noise.
  for (std::size_t i = 0; i < n; ++i) {
    x[i] += 0.05 * std::sin(2.0 * 3.14159265 * static_cast<double>(i) /
                            (kPhysioSampleRateHz * 7.0)) +
            rng.Gaussian(0.0, kNoiseStd);
  }
  // Label: the PVC beat's QRS region.
  const std::size_t pvc_start = plan.starts[plan.pvc_index];
  const std::size_t pvc_len = plan.lengths[plan.pvc_index];
  const AnomalyRegion label{pvc_start + pvc_len / 5,
                            std::min(n, pvc_start + (pvc_len * 4) / 5)};
  return LabeledSeries("ecg_pvc", std::move(x), {label}, 0);
}

EcgPlethPair GenerateBidmcPair(const PhysioConfig& config,
                               std::size_t train_length) {
  Rng rng(config.seed + 1);
  const std::size_t n = static_cast<std::size_t>(kPhysioSampleRateHz *
                                                 config.duration_sec);
  const std::size_t lag = static_cast<std::size_t>(kPhysioPlethLagSec *
                                                   kPhysioSampleRateHz);
  Series ecg(n, 0.0), pleth(n, 0.0);
  const BeatPlan plan = PlanBeats(n, rng);
  for (std::size_t b = 0; b < plan.starts.size(); ++b) {
    const bool pvc = b == plan.pvc_index;
    AddBeat(ecg, plan.starts[b], plan.lengths[b], pvc);
    // Pleth: mechanical lag; the PVC ejects little blood -> weak pulse.
    AddPulse(pleth, plan.starts[b] + lag, plan.lengths[b],
             pvc ? 0.35 : rng.Uniform(0.95, 1.05));
  }
  for (std::size_t i = 0; i < n; ++i) {
    ecg[i] += rng.Gaussian(0.0, kNoiseStd);
    pleth[i] += rng.Gaussian(0.0, kNoiseStd * 0.5);
  }

  const std::size_t pvc_start = plan.starts[plan.pvc_index];
  const std::size_t pvc_len = plan.lengths[plan.pvc_index];
  // Both labels cover the full aberrant beat; the pleth label starts
  // exactly `lag` later (electrical -> mechanical delay, §3.1).
  AnomalyRegion ecg_label{pvc_start, std::min(n, pvc_start + pvc_len)};
  AnomalyRegion pleth_label{std::min(n - 1, pvc_start + lag),
                            std::min(n, pvc_start + lag + pvc_len)};

  EcgPlethPair pair;
  pair.ecg = LabeledSeries("BIDMC1_ecg", std::move(ecg), {ecg_label}, 0);
  const std::string name = "UCR_Anomaly_BIDMC1_" +
                           std::to_string(train_length) + "_" +
                           std::to_string(pleth_label.begin) + "_" +
                           std::to_string(pleth_label.end);
  pair.pleth =
      LabeledSeries(name, std::move(pleth), {pleth_label}, train_length);
  return pair;
}

}  // namespace tsad
