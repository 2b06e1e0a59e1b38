#include "detectors/streaming_discord.h"

#include <cmath>
#include <string>

namespace tsad {

namespace {

StreamingMpxConfig KernelConfig(std::size_t m) {
  StreamingMpxConfig config;
  config.m = m;
  config.buffer_cap = 0;
  return config;
}

}  // namespace

StreamingDiscordCore::StreamingDiscordCore(std::size_t m, std::size_t burn_in)
    : kernel_(KernelConfig(m)), burn_in_(burn_in) {}

double StreamingDiscordCore::Step(double x) {
  kernel_.Push(x);
  // Causal alignment: the newest entry describes the window ending at
  // the point just pushed (index points_seen() - 1) and becomes known
  // exactly there.
  if (kernel_.points_seen() <= burn_in_ || kernel_.num_subsequences() == 0) {
    return 0.0;
  }
  const double d = kernel_.Left(kernel_.num_subsequences() - 1).distance;
  return std::isfinite(d) ? d : 0.0;
}

Status StreamingDiscordCore::CheckLength(std::size_t n) const {
  return CheckTwoSubsequences(n, kernel_.config().m);
}

void StreamingDiscordCore::Serialize(ByteWriter* writer) const {
  writer->PutU64(burn_in_);
  kernel_.Serialize(writer);
}

Status StreamingDiscordCore::Deserialize(ByteReader* reader,
                                         std::uint64_t seen) {
  std::uint64_t burn_in;
  TSAD_RETURN_IF_ERROR(reader->GetU64(&burn_in));
  if (burn_in != burn_in_) {
    return Status::InvalidArgument(
        "snapshot burn_in mismatch: " + std::to_string(burn_in) +
        " in the snapshot, " + std::to_string(burn_in_) + " in the detector");
  }
  TSAD_RETURN_IF_ERROR(kernel_.Deserialize(reader));
  if (kernel_.points_seen() != seen) {
    return Status::InvalidArgument(
        "streaming discord snapshot observed " + std::to_string(seen) +
        " points, its kernel holds " + std::to_string(kernel_.points_seen()));
  }
  return Status::OK();
}

StreamingDiscordDetector::StreamingDiscordDetector(std::size_t m,
                                                   std::size_t burn_in)
    : m_(m),
      burn_in_(burn_in == 0 ? 4 * m : burn_in),
      name_("StreamingDiscord[m=" + std::to_string(m) + "]") {}

Result<StreamingDiscordCore> StreamingDiscordDetector::MakeCore() const {
  TSAD_RETURN_IF_ERROR(CheckSubsequenceLength("streaming discord", m_));
  return StreamingDiscordCore(m_, burn_in_);
}

Result<std::vector<double>> StreamingDiscordDetector::Score(
    const Series& series, std::size_t /*train_length*/) const {
  TSAD_ASSIGN_OR_RETURN(StreamingDiscordCore core, MakeCore());
  TSAD_RETURN_IF_ERROR(core.CheckLength(series.size()));
  return StepScores(std::move(core), series);
}

}  // namespace tsad
