#include "robustness/sanitize.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace tsad {

namespace {

bool IsMissing(double v) {
  return !std::isfinite(v) || v == kDefaultSentinel;
}

}  // namespace

MissingScan ScanForMissing(const Series& x) {
  MissingScan scan;
  scan.n = x.size();
  std::size_t run = 0;
  for (double v : x) {
    if (std::isnan(v)) {
      ++scan.num_nan;
    } else if (std::isinf(v)) {
      ++scan.num_inf;
    } else if (v == kDefaultSentinel) {
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

Result<SanitizedSeries> SanitizeSeries(const Series& x) {
  SanitizedSeries out;
  out.scan = ScanForMissing(x);
  if (x.empty()) return out;
  if (out.scan.missing_fraction() > kMaxMissingFraction) {
    return Status::ResourceExhausted(
        "missing fraction " + std::to_string(out.scan.missing_fraction()) +
        " exceeds limit " + std::to_string(kMaxMissingFraction));
  }
  out.values = x;
  if (out.scan.num_missing() == 0) return out;

  const std::size_t n = x.size();
  Series& y = out.values;
  // Walk missing runs; `prev` is the index of the last clean point seen
  // (npos before the first one).
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t prev = kNone;
  for (std::size_t i = 0; i < n; ++i) {
    if (!IsMissing(y[i])) {
      prev = i;
      continue;
    }
    std::size_t next = i + 1;
    while (next < n && IsMissing(y[next])) ++next;
    if (prev == kNone) {
      // Leading gap: backfill from the first observation (the limit
      // above leaves at least one, so next < n).
      for (std::size_t j = i; j < next; ++j) y[j] = y[next];
    } else if (next >= n) {
      // Trailing gap: carry the last observation.
      for (std::size_t j = i; j < next; ++j) y[j] = y[prev];
    } else {
      // Interior gap: a straight line between its neighbours.
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

std::size_t SanitizeScores(std::vector<double>& scores) {
  std::size_t patched = 0;
  for (double& s : scores) {
    if (!std::isfinite(s)) {
      s = 0.0;
      ++patched;
    }
  }
  return patched;
}

}  // namespace tsad
