#include "scoring/point_adjust.h"

#include <algorithm>

namespace tsad {

Result<BestF1> BestPointAdjustedF1(const std::vector<uint8_t>& truth,
                                   const std::vector<double>& scores) {
  if (truth.size() != scores.size()) {
    return Status::InvalidArgument("truth/score length mismatch");
  }
  const std::size_t n = truth.size();

  // Which truth region each index belongs to (npos = normal point).
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  const std::vector<AnomalyRegion> regions = RegionsFromBinary(truth);
  std::vector<std::size_t> region_of(n, kNone);
  for (std::size_t r = 0; r < regions.size(); ++r) {
    for (std::size_t i = regions[r].begin; i < regions[r].end; ++i) {
      region_of[i] = r;
    }
  }

  // Sweep the threshold down through the distinct score values,
  // admitting points in descending-score order. Admitting the FIRST
  // point of a truth region flips the whole region to detected
  // (tp += |region|); later points of the same region change nothing
  // — exactly the point-adjust expansion, maintained incrementally.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scores[a] > scores[b];
  });

  Confusion c;
  for (const AnomalyRegion& r : regions) c.fn += r.length();
  c.tn = n - c.fn;
  std::vector<uint8_t> region_hit(regions.size(), 0);

  BestF1 best;
  std::size_t i = 0;
  while (i < n) {
    const double value = scores[order[i]];
    while (i < n && scores[order[i]] == value) {
      const std::size_t r = region_of[order[i]];
      if (r == kNone) {
        ++c.fp;
        --c.tn;
      } else if (!region_hit[r]) {
        region_hit[r] = 1;
        c.tp += regions[r].length();
        c.fn -= regions[r].length();
      }
      ++i;
    }
    const double f1 = c.f1();
    if (f1 > best.f1) {
      best.f1 = f1;
      best.threshold = value;  // predictions are score >= value
      best.confusion = c;
    }
  }
  return best;
}

}  // namespace tsad
