#include "scoring/confusion.h"

#include <algorithm>

namespace tsad {

Result<BestF1> BestF1OverThresholds(const std::vector<uint8_t>& truth,
                                    const std::vector<double>& scores) {
  if (truth.size() != scores.size()) {
    return Status::InvalidArgument("truth/score length mismatch");
  }
  // Sort points by descending score; sweep the threshold through the
  // distinct score values, maintaining the confusion incrementally.
  std::vector<std::size_t> order(scores.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scores[a] > scores[b];
  });

  std::size_t total_pos = 0;
  for (uint8_t t : truth) total_pos += t != 0 ? 1 : 0;

  BestF1 best;
  Confusion c;
  c.fn = total_pos;
  c.tn = truth.size() - total_pos;

  std::size_t i = 0;
  while (i < order.size()) {
    // Admit all points sharing this score value (threshold just below).
    const double value = scores[order[i]];
    while (i < order.size() && scores[order[i]] == value) {
      if (truth[order[i]] != 0) {
        ++c.tp;
        --c.fn;
      } else {
        ++c.fp;
        --c.tn;
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
