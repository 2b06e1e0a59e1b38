// Input validation and sanitization for dirty real-world series.
//
// The paper's §3 calls out exactly the pathologies the popular
// benchmarks hide: AspenTech-style -9999 missing-data markers, NaN
// gaps from dropped samples, and sensors that flatline. The functions
// here recognize those markers, summarize the damage (ScanForMissing),
// and repair it by interpolation so that detectors written for clean,
// finite, gap-free input can run at all.

#ifndef TSAD_ROBUSTNESS_SANITIZE_H_
#define TSAD_ROBUSTNESS_SANITIZE_H_

#include <cstddef>
#include <vector>

#include "common/series.h"
#include "common/status.h"

namespace tsad {

/// The conventional missing-data marker ("-9999 is AspenTech's code for
/// missing data", §3 of the paper).
inline constexpr double kDefaultSentinel = -9999.0;

/// Past this fraction of missing points a series is noise, not data,
/// and SanitizeSeries refuses it.
inline constexpr double kMaxMissingFraction = 0.5;

/// Damage summary for one series.
struct MissingScan {
  std::size_t n = 0;             // series length
  std::size_t num_nan = 0;       // NaN entries
  std::size_t num_inf = 0;       // +/-inf entries
  std::size_t num_sentinel = 0;  // exact kDefaultSentinel matches
  std::size_t longest_gap = 0;   // longest run of consecutive missing points

  std::size_t num_missing() const { return num_nan + num_inf + num_sentinel; }
  double missing_fraction() const {
    return n == 0 ? 0.0 : static_cast<double>(num_missing()) /
                              static_cast<double>(n);
  }
};

/// Counts NaN / inf / kDefaultSentinel entries and the longest
/// contiguous gap.
MissingScan ScanForMissing(const Series& x);

/// A repaired series and the damage summary of its input.
struct SanitizedSeries {
  Series values;  // every entry finite; as long as the input
  MissingScan scan;
};

/// Repairs every missing point of `x`: an interior gap is bridged by a
/// straight line between the observations around it, and a gap at
/// either edge takes the nearest observation.
///
/// Errors: kResourceExhausted if the missing fraction exceeds
/// kMaxMissingFraction (so a series with every point missing is
/// refused). An empty series sanitizes to an empty series.
Result<SanitizedSeries> SanitizeSeries(const Series& x);

/// Replaces non-finite entries of a score track in place with 0;
/// returns how many were patched.
std::size_t SanitizeScores(std::vector<double>& scores);

}  // namespace tsad

#endif  // TSAD_ROBUSTNESS_SANITIZE_H_
