// Simulator of the Numenta Anomaly Benchmark's flagship datasets (the
// paper's reference [6]):
//
//  * "Art Increase Spike Density" (Fig 2): a synthetic stream of
//    regular spikes whose density increases inside the anomaly.
//  * An "ad exchange"-style noisy business metric with point anomalies.
//  * The NYC Taxi demand series (Fig 8): 2014-07-01 .. 2015-01-31 at
//    30-minute buckets, with the five OFFICIAL labels (NYC marathon —
//    actually the co-occurring daylight-saving shift — Thanksgiving,
//    Christmas, New Year's Day, blizzard) AND the seven-plus real but
//    UNLABELED events the paper identifies (Independence Day, Labor
//    Day, Climate March, Comic Con, the Eric Garner grand-jury
//    protests, the Millions March, MLK Day). The simulator plants all
//    of them; only the official five are exposed as ground truth, so a
//    discord sweep rediscovers the unlabeled ones exactly as in Fig 8.

#ifndef TSAD_DATASETS_NUMENTA_H_
#define TSAD_DATASETS_NUMENTA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/series.h"

namespace tsad {

/// One calendar event planted in the taxi series.
struct TaxiEvent {
  std::string name;
  std::size_t day = 0;        // days since 2014-07-01
  std::size_t duration_days = 1;
  bool officially_labeled = false;
  double demand_factor = 1.0;  // multiplicative demand change
};

struct TaxiData {
  /// Demand series with the five official labels only.
  LabeledSeries series;
  /// Every planted event (official + unlabeled).
  std::vector<TaxiEvent> events;
  /// Regions of all events, labeled or not (the paper's "true" truth).
  std::vector<AnomalyRegion> all_event_regions;
  std::size_t buckets_per_day = 48;
};

struct NumentaConfig {
  uint64_t seed = 7;
};

/// NYC taxi demand, 215 days x 48 half-hour buckets.
TaxiData GenerateTaxiData(const NumentaConfig& config = {});

/// "Art Increase Spike Density": 4000 points of baseline noise with
/// spikes every ~25 points; inside the labeled region the spike rate
/// triples.
LabeledSeries GenerateArtSpikeDensity(const NumentaConfig& config = {});

/// Ad-exchange-style noisy KPI (1600 points) with a handful of point
/// anomalies.
LabeledSeries GenerateAdExchange(const NumentaConfig& config = {});

/// The full simulated NAB-style dataset collection (taxi series
/// included with its official labels).
BenchmarkDataset GenerateNumentaDataset(const NumentaConfig& config = {});

}  // namespace tsad

#endif  // TSAD_DATASETS_NUMENTA_H_
