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

/// The one place the right-hand side is assembled: d - (b + movmean +
/// c*movstd), summed in that order, each a double addition. `movmean`
/// counts only when params.use_movmean, `movstd` only when c != 0.
/// Direct, memoized and online margins are bit-identical because they
/// all end here with the same window moments.
inline double ComposeMargin(double d, double movmean, double movstd,
                            const OneLinerParams& params) {
  double rhs = params.b;
  if (params.use_movmean) rhs += movmean;
  if (params.c != 0.0) rhs += params.c * movstd;
  return d - rhs;
}

/// The margin at diff index j of the lhs track `d` (diff or abs(diff)
/// of the series), with the centered window moments of d[0, d.size())
/// read from its prefix sums (AppendPrefixSums); the online adapter
/// calls it per index. `sums` is read only when the predicate uses a
/// window, `sq` only when c != 0.
double OneLinerMarginAt(const std::vector<double>& d,
                        const std::vector<long double>& sums,
                        const std::vector<long double>& sq, std::size_t j,
                        const OneLinerParams& params);

class OneLinerMarginCache;

/// One parameter setting's margin, read in place from its tracks: the
/// lhs track `d` (diff or abs(diff)) and, when the predicate uses them,
/// its movmean and movstd windows. Entry j is the margin at diff index
/// j, i.e. series index j + 1: OneLinerMargin(series, params)[j + 1].
/// A view OneLinerMarginCache::View hands out reads windows the cache
/// fills on demand: an entry is readable once Fill has covered it.
struct OneLinerMarginView {
  const double* d = nullptr;
  const double* movmean = nullptr;  // read only if params.use_movmean
  const double* movstd = nullptr;   // read only if params.c != 0
  std::size_t size = 0;             // series length - 1; 0 below 2 points
  OneLinerParams params;
  // The cache that fills the windows and their slot in it; null when
  // every entry is readable already.
  OneLinerMarginCache* cache = nullptr;
  std::size_t slot = 0;

  /// Makes entries [lo, hi) readable (hi <= size); a no-op for a view
  /// that reads no window or whole ones.
  void Fill(std::size_t lo, std::size_t hi) const;

  double operator[](std::size_t j) const {
    return ComposeMargin(d[j], params.use_movmean ? movmean[j] : 0.0,
                         params.c != 0.0 ? movstd[j] : 0.0, params);
  }
};

/// Memoized margin tracks for one series at a time, built for the
/// triviality analyzer's (form, k, c) grid: every setting shares one of
/// the two lhs tracks (diff, abs(diff)), and every c shares its k's
/// movmean / movstd windows. Each track's prefix sums are built once
/// per series (AppendPrefixSums, with its first window), and each
/// window is filled from them only in the kBlock-entry blocks a view's
/// Fill covers (MovMeanFromSums, MovStdFromSums over the block). View()
/// composes nothing up front; its entries go through ComposeMargin over
/// the moments OneLinerMargin reads, so they are BIT-IDENTICAL to it.
///
/// Reset points the cache at another series and keeps every buffer, so
/// a cache that searches many series stops allocating once it has seen
/// the longest of them.
///
/// NOT thread-safe: lazy memoization mutates internal state. The
/// triviality analyzer gives each pool task its own cache; that is the
/// intended usage.
class OneLinerMarginCache {
 public:
  /// Windows are filled in blocks of this many entries.
  static constexpr std::size_t kBlock = 128;

  /// Per-instance memoization counters, in window blocks: how often a
  /// Fill found a movmean/movstd block filled, and how often it filled
  /// one.
  struct Stats {
    std::size_t block_hits = 0;
    std::size_t block_misses = 0;
  };

  OneLinerMarginCache() = default;
  explicit OneLinerMarginCache(const Series& series) { Reset(series); }

  /// Points the cache at `series`: rebuilds both lhs tracks and forgets
  /// every window, keeping the buffers. Views handed out before are
  /// invalid from here on.
  void Reset(const Series& series);

  /// The margin of `params`, read from the memoized tracks; valid until
  /// the next Reset (a later window moves a Windows, not its buffers).
  /// An entry that reads a window is readable once the view's Fill has
  /// covered it.
  OneLinerMarginView View(const OneLinerParams& params);

  const Stats& stats() const { return stats_; }

 private:
  friend struct OneLinerMarginView;

  // One lhs track (diff or abs(diff)) with its prefix sums.
  struct Lhs {
    std::vector<double> d;
    std::vector<long double> sums, sq;
    bool summed = false;  // sums and sq hold the current series' track
  };
  // One (lhs track, k) pair's movmean and movstd: at least as long as
  // the track, and valid in the blocks whose flag is set.
  struct Windows {
    std::size_t lhs = 0;  // index into lhs_
    std::size_t k = 0;    // the effective window max(1, k)
    std::vector<double> movmean, movstd;
    std::vector<uint8_t> mean_filled, std_filled;  // one flag per block
  };

  void Fill(std::size_t slot, const OneLinerParams& params, std::size_t lo,
            std::size_t hi);

  Lhs lhs_[2];  // [0] diff(TS), [1] abs(diff(TS))
  // windows_[0, used_windows_) belong to the current series; the rest
  // only keep their buffers for later series.
  std::vector<Windows> windows_;
  std::size_t used_windows_ = 0;
  Stats stats_;
};

inline void OneLinerMarginView::Fill(std::size_t lo, std::size_t hi) const {
  if (cache != nullptr) cache->Fill(slot, params, lo, hi);
}

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
