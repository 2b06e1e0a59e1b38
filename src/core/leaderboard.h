// The cross-family, multi-metric detector leaderboard — the paper's
// "illusion of progress" experiment reproduced against our own
// detector zoo. Every registry detector (including the resilient:
// wrappers) runs across every simulator family (Yahoo, NAB, NASA,
// OMNI, physio, gait) and is scored under every scoring protocol the
// library implements, from the flattering (best point-adjust F1) to
// the event-aware (affiliation, detection delay). The report carries
// rank-inversion statistics: pairs of detectors ordered one way by
// point-adjust F1 and the opposite way by an event-aware metric —
// each such pair is a place where the popular protocol manufactures
// progress that the fair protocols do not see.
//
// The sweep is one ParallelFor over (inner spec, family, series) jobs.
// A job scores its spec once and fills that row's (family, series)
// slot, then the slot of every `resilient:<spec>` row on the board,
// whose wrapper reuses the same result wherever its primary stage
// would make that same call (ResilientDetector::ScoreReusing). A
// resilient: row whose inner spec is not on the board runs its own
// jobs. Every job scores through one instance per spec, built once up
// front (Score() keeps no state between calls), and the cells are
// aggregated in slot order, so the report is bit-identical at any
// thread count.

#ifndef TSAD_CORE_LEADERBOARD_H_
#define TSAD_CORE_LEADERBOARD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/series.h"
#include "common/status.h"

namespace tsad {

/// The scoring protocols on the board, in report column order.
enum class LeaderboardMetric {
  kPointF1,        // best point-wise F1 over all thresholds
  kPointAdjustF1,  // best point-adjusted F1 (the flattering headline)
  kRangePrF1,      // range-based precision/recall F1 (Tatbul et al.)
  kNab,            // NAB normalized score / 100 (can be negative)
  kUcrSlop,        // UCR protocol: peak within slop of a labeled region
  kAffiliationF1,  // affiliation precision/recall F1 (parameter-free)
  kDelayF1,        // delay-constrained event F1 (online protocol)
};
inline constexpr std::size_t kNumLeaderboardMetrics = 7;

/// Stable metric name used in flags, reports and JSON.
std::string_view LeaderboardMetricName(LeaderboardMetric metric);

/// Parses a comma-separated metric list ("" or "all" = every metric).
/// Unknown names are InvalidArgument with a "did you mean" hint.
Result<std::vector<LeaderboardMetric>> ParseLeaderboardMetrics(
    const std::string& list);

/// The simulator families on the board.
enum class LeaderboardFamily {
  kYahoo,   // simulated Yahoo S5 (stratified across A1-A4)
  kNab,     // simulated Numenta collection (taxi, spike density, ads)
  kNasa,    // simulated NASA SMAP/MSL-style channels
  kOmni,    // simulated OMNI/SMD machines (cross-dimension mean)
  kPhysio,  // synthetic ECG / BIDMC pleth
  kGait,    // synthetic force-plate gait
};
inline constexpr std::size_t kNumLeaderboardFamilies = 6;

std::string_view LeaderboardFamilyName(LeaderboardFamily family);

/// Parses a comma-separated family list ("" or "all" = every family).
/// Unknown names are InvalidArgument with a "did you mean" hint.
Result<std::vector<LeaderboardFamily>> ParseLeaderboardFamilies(
    const std::string& list);

/// Every registered detector spec plus its resilient: wrapper.
std::vector<std::string> DefaultLeaderboardDetectors();

/// The labeled series the leaderboard evaluates for one family:
/// deterministic in (family, seed), at most `max_series` entries
/// (0 = no cap). Series without a training prefix get one assigned
/// (quarter of the series, clipped to the first anomaly) so the
/// semi-supervised detectors can compete.
std::vector<LabeledSeries> BuildLeaderboardFamily(LeaderboardFamily family,
                                                  uint64_t seed,
                                                  std::size_t max_series);

struct LeaderboardConfig {
  /// Detector specs to run; empty = DefaultLeaderboardDetectors().
  std::vector<std::string> detectors;
  /// Families to run; empty = all six.
  std::vector<LeaderboardFamily> families;
  /// Metrics to compute; empty = all seven.
  std::vector<LeaderboardMetric> metrics;
  uint64_t seed = 42;
  /// Cap on series per family (0 = no cap). The default keeps a full
  /// 32-detector board tractable on one core.
  std::size_t max_series_per_family = 4;
  /// Tolerance k of the delay metric, in points.
  std::size_t delay_tolerance = 64;
};

/// One (detector, family) cell: every metric, averaged over the
/// family's series. values is aligned with the report's metric list;
/// entries are NaN when no series could be scored.
struct LeaderboardCell {
  std::string detector;
  std::string family;
  std::vector<double> values;
  std::size_t series_scored = 0;
  std::size_t detector_errors = 0;
};

/// Rank disagreement between point-adjust F1 and one other metric
/// within one family. A discordant pair is two detectors strictly
/// ordered one way by point-adjust and the other way by the metric;
/// the example names the pair with the widest margins (the detector
/// point-adjust flatters most vs the one the metric prefers).
struct RankInversionStat {
  std::string family;
  std::string metric;
  std::size_t discordant_pairs = 0;
  std::string flattered;  // ahead on point-adjust, behind on the metric
  std::string robbed;     // behind on point-adjust, ahead on the metric
  double flattered_point_adjust = 0.0;
  double flattered_value = 0.0;
  double robbed_point_adjust = 0.0;
  double robbed_value = 0.0;
};

struct LeaderboardReport {
  std::vector<std::string> detectors;
  std::vector<std::string> families;
  std::vector<LeaderboardMetric> metrics;
  uint64_t seed = 0;
  std::size_t delay_tolerance = 0;
  /// detector-major x family: cells[d * families.size() + f].
  std::vector<LeaderboardCell> cells;
  /// One entry per (family, non-point-adjust metric) with at least one
  /// discordant pair; empty when point-adjust F1 is not on the board.
  std::vector<RankInversionStat> inversions;
  std::size_t total_discordant_pairs = 0;
};

/// Runs the sweep. Validates every detector spec up front (so a typo
/// fails fast with the registry's "did you mean" message); per-series
/// detector failures are recorded in the cell, not fatal.
Result<LeaderboardReport> RunLeaderboard(const LeaderboardConfig& config = {});

/// Rank-inversion analysis of a cell grid (pure; exposed for tests).
/// Writes the grand total into *total when non-null.
std::vector<RankInversionStat> ComputeRankInversions(
    const std::vector<LeaderboardCell>& cells,
    const std::vector<std::string>& detectors,
    const std::vector<std::string>& families,
    const std::vector<LeaderboardMetric>& metrics, std::size_t* total);

/// Machine-readable report (one JSON object; NaN cells become null).
/// Byte-identical for byte-identical reports.
std::string LeaderboardJson(const LeaderboardReport& report);

/// Human-readable per-family tables, detectors sorted by point-adjust
/// F1 (the flattering order — the other columns show the corrections),
/// plus the inversion summary.
std::string FormatLeaderboardTable(const LeaderboardReport& report);

}  // namespace tsad

#endif  // TSAD_CORE_LEADERBOARD_H_
