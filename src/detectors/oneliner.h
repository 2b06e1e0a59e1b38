// The paper's "one-liner" detector family: equations (1)-(6) of §2.2.
//
// The general forms, in the paper's MATLAB notation, are
//
//   (1)  abs(diff(TS)) > u*movmean(abs(diff(TS)),k)
//                        + c*movstd(abs(diff(TS)),k) + b
//   (2)      diff(TS)  > u*movmean(diff(TS),k)
//                        + c*movstd(diff(TS),k) + b
//
// with u in {0, 1}, window k, coefficient c and offset b. The
// simplified derived forms are
//
//   (3)  abs(diff(TS)) > b                          (u = 0, c = 0)
//   (4)  abs(diff(TS)) > movmean(...) + c*movstd(...) + b   (u = 1)
//   (5)      diff(TS)  > b                          (u = 0, c = 0)
//   (6)      diff(TS)  > movmean(...) + c*movstd(...) + b   (u = 1)
//
// A one-liner predicate flags points in the diff domain; we align the
// flag/score for diff index i to original-series index i + 1 (the point
// whose arrival created the jump).

#ifndef TSAD_DETECTORS_ONELINER_H_
#define TSAD_DETECTORS_ONELINER_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "detectors/detector.h"

namespace tsad {

/// Which equation family a parameter setting instantiates.
enum class OneLinerForm {
  kEq3,  // abs(diff) > b
  kEq4,  // abs(diff) > movmean + c*movstd + b
  kEq5,  // diff > b
  kEq6,  // diff > movmean + c*movstd + b
};

std::string_view OneLinerFormName(OneLinerForm form);

/// Full parameterization of equations (1)/(2).
struct OneLinerParams {
  bool use_abs = true;      // abs(diff(TS)) [eq 1/3/4] vs diff(TS) [eq 2/5/6]
  bool use_movmean = false;  // u
  std::size_t k = 5;        // moving-window length (only if u=1 or c!=0)
  double c = 0.0;           // coefficient on movstd
  double b = 0.0;           // offset

  /// Whether the predicate reads a moving window (movmean or movstd).
  bool uses_window() const { return use_movmean || c != 0.0; }

  /// Classifies these parameters into the simplified form taxonomy.
  OneLinerForm form() const {
    if (use_abs) {
      return uses_window() ? OneLinerForm::kEq4 : OneLinerForm::kEq3;
    }
    return uses_window() ? OneLinerForm::kEq6 : OneLinerForm::kEq5;
  }

  /// Renders the parameter setting as the MATLAB one-liner it encodes,
  /// e.g. "abs(diff(TS)) > movmean(abs(diff(TS)),5) + 3.1*movstd(...,5) + 0.2".
  std::string ToMatlab() const;
};

/// Evaluates a one-liner predicate. Returns a binary flag per point of
/// the original series (length n; index 0 is never flagged since diff
/// shortens by one).
std::vector<uint8_t> EvaluateOneLiner(const Series& series,
                                      const OneLinerParams& params);

/// Margin scores for the same predicate: score[i] = lhs - rhs aligned to
/// the original series (index 0 gets the minimum margin). Positive where
/// the predicate fires; usable as a generic anomaly score.
std::vector<double> OneLinerMargin(const Series& series,
                                   const OneLinerParams& params);

/// The margin at diff index j of the lhs track `d` (diff or abs(diff)
/// of the series): d[j] - (b + movmean + c*movstd), the right-hand
/// side summed in that order, with the centered window moments of
/// d[0, d.size()) read from its prefix sums (AppendPrefixSums). `sums`
/// is read only when the predicate uses a window, `sq` only when
/// c != 0.
/// The online adapter calls it per index; the batch paths run the same
/// pieces a track at a time (MovMean, MovStd, then the one composition
/// of the right-hand side), so every margin agrees bit for bit.
double OneLinerMarginAt(const std::vector<double>& d,
                        const std::vector<long double>& sums,
                        const std::vector<long double>& sq, std::size_t j,
                        const OneLinerParams& params);

/// Memoized margin evaluation for one fixed series, built for the
/// triviality analyzer's (form, k, c) grid: every margin in the grid
/// shares the same diff / abs(diff) track, and every c shares the same
/// MovMean(d, k) / MovStd(d, k) windows, yet OneLinerMargin recomputes
/// all of them per call. The cache computes each track once (the two
/// diff tracks eagerly, the per-k windows lazily on first use) and then
/// composes a margin with the exact expression OneLinerMargin evaluates
/// — literally the same code path operating on the memoized inputs — so
/// Margin() is BIT-IDENTICAL to OneLinerMargin(series, params) for
/// every parameter setting.
///
/// NOT thread-safe: lazy memoization mutates internal state. The
/// triviality analyzer parallelizes per series, so each worker owns its
/// own cache; that is the intended usage.
class OneLinerMarginCache {
 public:
  /// Per-instance memoization counters: how often a window was served
  /// from the memo.
  struct Stats {
    std::size_t window_hits = 0;    // MovMean/MovStd served from memo
    std::size_t window_misses = 0;  // ... computed and stored
  };

  explicit OneLinerMarginCache(const Series& series);

  /// Bit-identical to OneLinerMargin(series_, params).
  std::vector<double> Margin(const OneLinerParams& params);

  const Stats& stats() const { return stats_; }

 private:
  struct WindowTracks {
    std::vector<double> movmean, movstd;
    bool has_movmean = false, has_movstd = false;
  };

  const std::vector<double>& Track(bool use_abs) const;
  const std::vector<double>& MovMeanFor(bool use_abs, std::size_t k);
  const std::vector<double>& MovStdFor(bool use_abs, std::size_t k);
  WindowTracks& TracksFor(bool use_abs, std::size_t k);

  std::size_t length_;           // original series length
  std::vector<double> diff_;     // diff(TS)
  std::vector<double> abs_diff_; // abs(diff(TS))
  // Keyed by the effective window max(1, k); one map per lhs track.
  std::vector<std::pair<std::size_t, WindowTracks>> windows_[2];
  Stats stats_;
};

/// AnomalyDetector adapter so one-liners can run through the generic
/// evaluation pipeline next to Discord/Telemanom.
class OneLinerDetector : public AnomalyDetector {
 public:
  explicit OneLinerDetector(OneLinerParams params)
      : params_(params), name_("OneLiner[" + params.ToMatlab() + "]") {}

  std::string_view name() const override { return name_; }
  using AnomalyDetector::Score;
  Result<std::vector<double>> Score(const Series& series,
                                    std::size_t train_length) const override;

  const OneLinerParams& params() const { return params_; }

 private:
  OneLinerParams params_;
  std::string name_;
};

}  // namespace tsad

#endif  // TSAD_DETECTORS_ONELINER_H_
