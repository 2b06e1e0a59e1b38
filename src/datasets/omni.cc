#include "datasets/omni.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "datasets/generators.h"

namespace tsad {

namespace {

// SMD machine names: 8 + 9 + 11 = 28 machines in three groups.
std::vector<std::string> MachineNames(std::size_t count) {
  static constexpr std::size_t kGroupSizes[] = {8, 9, 11};
  std::vector<std::string> names;
  for (std::size_t g = 0; g < 3 && names.size() < count; ++g) {
    for (std::size_t i = 1; i <= kGroupSizes[g] && names.size() < count; ++i) {
      names.push_back("machine-" + std::to_string(g + 1) + "-" +
                      std::to_string(i));
    }
  }
  while (names.size() < count) {
    names.push_back("machine-x-" + std::to_string(names.size() + 1));
  }
  return names;
}

// One telemetry dimension: server-metric flavored base signal.
Series MakeDimension(std::size_t n, std::size_t dim, Rng& rng) {
  switch (dim % 4) {
    case 0:  // CPU-like: level + daily season + noise
      return Mix({LinearTrend(n, rng.Uniform(0.2, 0.6), 0.0),
                  Sinusoid(n, 288.0, rng.Uniform(0.05, 0.2),
                           rng.Uniform(0.0, 6.28)),
                  GaussianNoise(n, 0.02, rng)});
    case 1:  // memory-like: slow mean-reverting walk
      return MeanRevertingWalk(n, rng.Uniform(0.3, 0.7), 0.01, 0.05, rng);
    case 2: {  // sparse counter: near-zero with occasional bumps
      Series x(n, 0.0);
      std::size_t i = 0;
      while (i < n) {
        i += 5 + static_cast<std::size_t>(rng.Exponential(1.0 / 40.0));
        if (i >= n) break;
        x[i] = rng.Uniform(0.1, 0.4);
      }
      return x;
    }
    default:  // network-like: bursty noise around a level
      return Mix({LinearTrend(n, rng.Uniform(0.1, 0.5), 0.0),
                  GaussianNoise(n, 0.05, rng)});
  }
}

// Applies a machine-wide incident: dims in `affected` shift by
// per-dim magnitudes inside `region`.
void ApplyIncident(std::vector<Series>& dims,
                   const std::vector<std::size_t>& affected,
                   const AnomalyRegion& region, double magnitude, Rng& rng) {
  for (std::size_t d : affected) {
    if (d >= dims.size()) continue;  // tolerate small num_dimensions configs
    const double m = magnitude * rng.Uniform(0.7, 1.3) *
                     (rng.Bernoulli(0.8) ? 1.0 : -1.0);
    for (std::size_t i = region.begin; i < region.end && i < dims[d].size();
         ++i) {
      dims[d][i] += m;
    }
  }
}

// Fraction of machines whose anomalies are trivially easy.
constexpr double kEasyFraction = 0.5;

}  // namespace

OmniArchive GenerateOmniArchive(const OmniConfig& config) {
  OmniArchive archive;
  Rng master(config.seed);
  const std::vector<std::string> names = MachineNames(config.num_machines);
  const std::size_t n = config.machine_length;

  for (std::size_t m = 0; m < config.num_machines; ++m) {
    Rng rng = master.Fork(m + 1);
    std::vector<Series> dims(config.num_dimensions);
    for (std::size_t d = 0; d < config.num_dimensions; ++d) {
      dims[d] = MakeDimension(n, d, rng);
    }

    const bool is_easy =
        (static_cast<double>(m) + 0.5) /
            static_cast<double>(config.num_machines) <
        kEasyFraction;
    const bool is_sdm3_11 = names[m] == "machine-3-11";
    const bool is_machine_2_5 = names[m] == "machine-2-5";

    std::vector<AnomalyRegion> anomalies;
    if (is_machine_2_5) {
      // The density flaw: 21 separate short regions inside a 700-point
      // span of the test area.
      const std::size_t span_begin = config.train_length + (n / 3);
      for (std::size_t k = 0; k < 21; ++k) {
        const std::size_t begin = span_begin + k * 33;
        const AnomalyRegion r{begin, begin + 12};
        anomalies.push_back(r);
        std::vector<std::size_t> affected;
        for (std::size_t d = 0; d < config.num_dimensions; d += 5) {
          affected.push_back(d);
        }
        ApplyIncident(dims, affected, r, 0.6, rng);
      }
    } else if (is_sdm3_11) {
      // Fig 1: one sustained incident; dimension 19 carries a clean
      // level shift, a handful of other dims shift more subtly.
      const std::size_t begin = config.train_length + (2 * n) / 3;
      const AnomalyRegion r{begin, std::min(n, begin + 200)};
      anomalies.push_back(r);
      ApplyIncident(dims, {19}, r, 0.8, rng);
      ApplyIncident(dims, {3, 7, 12, 25, 31}, r, 0.3, rng);
    } else if (is_easy) {
      // Trivially easy: 1-2 large incidents hitting a third of dims.
      const std::size_t count = 1 + (m % 2);
      for (std::size_t k = 0; k < count; ++k) {
        const std::size_t begin = PickPosition(
            rng, config.train_length + 100, n - 150, 100, 0.4);
        const AnomalyRegion r{begin, begin + 80};
        anomalies.push_back(r);
        std::vector<std::size_t> affected;
        for (std::size_t d = 0; d < config.num_dimensions; d += 3) {
          affected.push_back(d);
        }
        ApplyIncident(dims, affected, r, 0.7, rng);
      }
    } else {
      // Harder: a subtle drift in three dimensions.
      const std::size_t begin = PickPosition(
          rng, config.train_length + 100, n - 300, 250, 0.4);
      const AnomalyRegion r{begin, begin + 250};
      anomalies.push_back(r);
      ApplyIncident(dims, {5, 17, 29}, r, 0.08, rng);
    }

    if (is_easy || is_sdm3_11 || is_machine_2_5) {
      archive.easy_machines.push_back(names[m]);
    }
    archive.machines.emplace_back(names[m], std::move(dims),
                                  std::move(anomalies), config.train_length);
  }
  return archive;
}

}  // namespace tsad
