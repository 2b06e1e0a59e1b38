// Serving dirty data without falling over.
//
// A production scoring path sees series the benchmarks never show:
// -9999 missing-data markers, NaN gaps from dropped samples, dead
// feeds. This example corrupts a clean series the way §3 of the paper
// describes, shows the bare detector failing on it, and then serves it
// through the resilient wrapper — which sanitizes the input, patches
// stray non-finite scores, and degrades to a simplified retry and then
// a moving z-score instead of erroring.
//
//   ./resilient_serving

#include <cstdio>

#include "tsad.h"

using namespace tsad;

int main() {
  // A clean seasonal series with one contextual anomaly.
  Rng rng(7);
  Series x = Mix({Sinusoid(3000, 120.0, 1.0, 0.0),
                  GaussianNoise(3000, 0.1, rng)});
  const AnomalyRegion anomaly = InjectSmoothHump(x, 2300, 60, 1.4);
  const LabeledSeries clean("serving-demo", std::move(x), {anomaly}, 900);

  // Corrupt it: 10% scattered missing markers plus a 5% dead-feed gap.
  FaultInjector injector(/*seed=*/14);
  injector.Add({FaultType::kNanMissing, 0.05})
      .Add({FaultType::kSentinelMissing, 0.05})
      .Add({FaultType::kDropout, 0.05});
  const LabeledSeries dirty = injector.Apply(clean);
  const MissingScan scan = ScanForMissing(dirty.values());
  std::printf("corrupted %zu/%zu points (%.1f%%), longest gap %zu\n",
              scan.num_missing(), scan.n, 100.0 * scan.missing_fraction(),
              scan.longest_gap);

  // The bare detector cannot serve this: NaNs poison the matrix
  // profile and the score track flatlines (or the call errors out).
  DiscordDetector bare(128);
  Result<std::vector<double>> bare_scores = bare.Score(dirty);
  if (!bare_scores.ok()) {
    std::printf("bare discord : %s\n",
                bare_scores.status().ToString().c_str());
  } else {
    std::printf("bare discord : discrimination %.2f, peak at %zu — useless\n",
                Discrimination(*bare_scores),
                PredictLocation(*bare_scores, dirty.train_length()));
  }

  // The hardened pipeline can: it interpolates the gaps before the
  // discord search, and should that search fail it degrades to the
  // moving z-score fallback.
  Result<std::unique_ptr<AnomalyDetector>> served =
      MakeDetector("resilient:discord:m=128");
  if (!served.ok()) {
    std::printf("%s\n", served.status().ToString().c_str());
    return 1;
  }
  const auto* resilient =
      static_cast<const ResilientDetector*>(served->get());
  ResilientReport report;
  Result<std::vector<double>> scores =
      resilient->Score(dirty.values(), dirty.train_length(), &report);
  if (!scores.ok()) {
    std::printf("resilient    : %s\n", scores.status().ToString().c_str());
    return 1;
  }
  const std::size_t peak = PredictLocation(*scores, dirty.train_length());
  std::printf("resilient    : served by %s, peak at %zu (truth [%zu, %zu))\n",
              std::string(ServedByName(report.served_by)).c_str(),
              peak, anomaly.begin, anomaly.end);
  return 0;
}
