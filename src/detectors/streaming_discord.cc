#include "detectors/streaming_discord.h"

#include <cmath>
#include <string>

namespace tsad {

StreamingMpxConfig StreamingDiscordKernelConfig(std::size_t m) {
  StreamingMpxConfig config;
  config.m = m;
  config.buffer_cap = 0;
  return config;
}

double StreamingDiscordScore(const StreamingMpx& kernel, std::size_t t,
                             std::size_t burn_in) {
  // Causal alignment: the newest entry describes the window ending at
  // the point just pushed (index t) and becomes known exactly there.
  if (t < burn_in || kernel.num_subsequences() == 0) return 0.0;
  const double d = kernel.Left(kernel.num_subsequences() - 1).distance;
  return std::isfinite(d) ? d : 0.0;
}

StreamingDiscordDetector::StreamingDiscordDetector(std::size_t m,
                                                   std::size_t burn_in)
    : m_(m),
      burn_in_(burn_in == 0 ? 4 * m : burn_in),
      name_("StreamingDiscord[m=" + std::to_string(m) + "]") {}

Result<std::vector<double>> StreamingDiscordDetector::Score(
    const Series& series, std::size_t /*train_length*/) const {
  if (m_ < 3) {
    return Status::InvalidArgument(
        "streaming discord requires subsequence length m >= 3, got m=" +
        std::to_string(m_) +
        " (the m/2 exclusion zone degenerates for shorter windows)");
  }
  if (series.size() < m_ + 1) {
    return Status::InvalidArgument(
        "series too short: need at least 2 subsequences of length " +
        std::to_string(m_));
  }

  // Replay through the causal kernel — the same one the online adapter
  // advances point by point — so streaming replay reproduces these
  // scores byte for byte.
  StreamingMpx kernel(StreamingDiscordKernelConfig(m_));
  std::vector<double> scores(series.size(), 0.0);
  for (std::size_t t = 0; t < series.size(); ++t) {
    kernel.Push(series[t]);
    scores[t] = StreamingDiscordScore(kernel, t, burn_in_);
  }
  return scores;
}

}  // namespace tsad
