#include "robustness/sanitize.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace tsad {

namespace {

bool IsMissing(double v, double sentinel) {
  return !std::isfinite(v) || v == sentinel;
}

}  // namespace

MissingScan ScanForMissing(const Series& x, double sentinel) {
  MissingScan scan;
  scan.n = x.size();
  std::size_t run = 0;
  for (double v : x) {
    if (std::isnan(v)) {
      ++scan.num_nan;
    } else if (std::isinf(v)) {
      ++scan.num_inf;
    } else if (v == sentinel) {
      ++scan.num_sentinel;
    } else {
      run = 0;
      continue;
    }
    ++run;
    scan.longest_gap = std::max(scan.longest_gap, run);
  }
  return scan;
}

std::size_t SanitizedSeries::MapTrainLength(std::size_t train_length) const {
  if (!reindexed()) return std::min(train_length, values.size());
  // Number of kept points drawn from the original training prefix.
  const auto it =
      std::lower_bound(kept.begin(), kept.end(), train_length);
  return static_cast<std::size_t>(it - kept.begin());
}

std::vector<double> SanitizedSeries::ExpandScores(
    const std::vector<double>& scores, std::size_t original_length) const {
  if (!reindexed()) return scores;
  std::vector<double> out(original_length, 0.0);
  const std::size_t n = std::min(scores.size(), kept.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (kept[i] < original_length) out[kept[i]] = scores[i];
  }
  return out;
}

Result<SanitizedSeries> SanitizeSeries(const Series& x,
                                       ImputationPolicy policy, double sentinel,
                                       double max_missing_fraction) {
  SanitizedSeries out;
  out.scan = ScanForMissing(x, sentinel);
  if (x.empty()) return out;
  if (out.scan.num_missing() == x.size()) {
    return Status::ResourceExhausted("every point is missing; nothing to score");
  }
  if (out.scan.missing_fraction() > max_missing_fraction) {
    return Status::ResourceExhausted(
        "missing fraction " + std::to_string(out.scan.missing_fraction()) +
        " exceeds limit " + std::to_string(max_missing_fraction));
  }
  if (out.scan.num_missing() == 0) {
    out.values = x;
    return out;
  }

  const std::size_t n = x.size();
  if (policy == ImputationPolicy::kDropAndReindex) {
    out.values.reserve(n - out.scan.num_missing());
    out.kept.reserve(n - out.scan.num_missing());
    for (std::size_t i = 0; i < n; ++i) {
      if (IsMissing(x[i], sentinel)) continue;
      out.values.push_back(x[i]);
      out.kept.push_back(i);
    }
    return out;
  }

  out.values = x;
  Series& y = out.values;
  // Walk missing runs; `prev` is the index of the last clean point seen
  // (npos before the first one).
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t prev = kNone;
  for (std::size_t i = 0; i < n; ++i) {
    if (!IsMissing(y[i], sentinel)) {
      prev = i;
      continue;
    }
    std::size_t next = i + 1;
    while (next < n && IsMissing(y[next], sentinel)) ++next;
    if (prev == kNone) {
      // Leading gap: backfill from the first observation (both policies
      // — LOCF has nothing to carry yet).
      const double fill = next < n ? y[next] : 0.0;  // next < n guaranteed
      for (std::size_t j = i; j < next; ++j) y[j] = fill;
    } else if (next >= n || policy == ImputationPolicy::kLocf) {
      // Trailing gap, or LOCF everywhere: carry the last observation.
      for (std::size_t j = i; j < next; ++j) y[j] = y[prev];
    } else {
      // Interior gap under linear interpolation.
      const double lo = y[prev];
      const double hi = y[next];
      const double span = static_cast<double>(next - prev);
      for (std::size_t j = i; j < next; ++j) {
        y[j] = lo + (hi - lo) * static_cast<double>(j - prev) / span;
      }
    }
    i = next;  // loop increment lands on the clean point (or past end)
    if (next < n) prev = next;
  }
  return out;
}

std::size_t SanitizeScores(std::vector<double>& scores, double replacement) {
  std::size_t patched = 0;
  for (double& s : scores) {
    if (!std::isfinite(s)) {
      s = replacement;
      ++patched;
    }
  }
  return patched;
}

}  // namespace tsad
