// Input validation and sanitization for dirty real-world series.
//
// The paper's §3 calls out exactly the pathologies the popular
// benchmarks hide: AspenTech-style -9999 missing-data markers, NaN
// gaps from dropped samples, and sensors that flatline. The functions
// here recognize those markers, summarize the damage (ScanForMissing),
// and repair it under a pluggable imputation policy so that detectors
// written for clean, finite, gap-free input can run at all.

#ifndef TSAD_ROBUSTNESS_SANITIZE_H_
#define TSAD_ROBUSTNESS_SANITIZE_H_

#include <cstddef>
#include <string_view>
#include <vector>

#include "common/series.h"
#include "common/status.h"

namespace tsad {

/// The conventional missing-data marker ("-9999 is AspenTech's code for
/// missing data", §3 of the paper).
inline constexpr double kDefaultSentinel = -9999.0;

/// How missing points are repaired before scoring.
enum class ImputationPolicy {
  kLinearInterpolate,  // straight line between surrounding observations
  kLocf,               // last observation carried forward
  kDropAndReindex,     // remove missing points; scores map back via index
};

/// Damage summary for one series.
struct MissingScan {
  std::size_t n = 0;             // series length
  std::size_t num_nan = 0;       // NaN entries
  std::size_t num_inf = 0;       // +/-inf entries
  std::size_t num_sentinel = 0;  // exact sentinel matches
  std::size_t longest_gap = 0;   // longest run of consecutive missing points

  std::size_t num_missing() const { return num_nan + num_inf + num_sentinel; }
  double missing_fraction() const {
    return n == 0 ? 0.0 : static_cast<double>(num_missing()) /
                              static_cast<double>(n);
  }
};

/// Counts NaN / inf / sentinel entries and the longest contiguous gap.
MissingScan ScanForMissing(const Series& x, double sentinel = kDefaultSentinel);

/// A repaired series plus the bookkeeping needed to relate results back
/// to the original index space.
struct SanitizedSeries {
  Series values;  // every entry finite; shorter than the input only
                  // under kDropAndReindex
  /// Under kDropAndReindex: original index of each kept point. Empty
  /// for the length-preserving policies.
  std::vector<std::size_t> kept;
  MissingScan scan;

  bool reindexed() const { return !kept.empty(); }

  /// Maps a training-prefix length in original coordinates to the
  /// sanitized coordinates (identity unless reindexed).
  std::size_t MapTrainLength(std::size_t train_length) const;

  /// Expands a score track computed on `values` back to
  /// `original_length` points. Dropped positions receive 0 (neutral:
  /// never the argmax of a meaningful track). Identity when not
  /// reindexed.
  std::vector<double> ExpandScores(const std::vector<double>& scores,
                                   std::size_t original_length) const;
};

/// Repairs every missing point of `x` under `policy`.
///
/// Errors: kResourceExhausted if every point is missing or the missing
/// fraction exceeds `max_missing_fraction` (a series that damaged is
/// noise, not data). An empty series sanitizes to an empty series.
Result<SanitizedSeries> SanitizeSeries(const Series& x, ImputationPolicy policy,
                                       double sentinel = kDefaultSentinel,
                                       double max_missing_fraction = 1.0);

/// Replaces non-finite entries of a score track in place with
/// `replacement`; returns how many were patched.
std::size_t SanitizeScores(std::vector<double>& scores,
                           double replacement = 0.0);

}  // namespace tsad

#endif  // TSAD_ROBUSTNESS_SANITIZE_H_
