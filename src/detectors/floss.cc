#include "detectors/floss.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <string_view>

namespace tsad {

namespace {

constexpr std::string_view kGrammar = "floss:<window>[:<buffer>]";

Status ParseSizeToken(std::string_view token, std::string_view what,
                      const std::string& spec, std::size_t* out) {
  std::size_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), v);
  if (ec != std::errc() || ptr != token.data() + token.size() ||
      token.empty()) {
    return Status::InvalidArgument("bad " + std::string(what) + " '" +
                                   std::string(token) + "' in '" + spec +
                                   "' (want " + std::string(kGrammar) + ")");
  }
  *out = v;
  return Status::OK();
}

StreamingMpxConfig KernelConfig(const FlossParams& params) {
  StreamingMpxConfig config;
  config.m = params.m;
  config.buffer_cap = params.buffer_cap;
  return config;
}

// FLOSS scores a bounded window, so the kernel's no-eviction mode
// (buffer_cap = 0) is not a floss buffer.
Status ValidateKernelConfig(const FlossParams& params) {
  if (params.buffer_cap == 0) {
    return Status::InvalidArgument(
        "floss needs a bounded buffer: need buffer >= 4*window = " +
        MinStreamingBufferText(params.m) + ", got 0");
  }
  return StreamingMpx::Validate(KernelConfig(params));
}

}  // namespace

Result<FlossParams> ParseFlossSpec(const std::string& spec) {
  FlossParams params;
  std::string_view rest(spec);
  if (rest.substr(0, 5) != "floss") {
    return Status::InvalidArgument("not a floss spec: '" + spec + "'");
  }
  rest.remove_prefix(5);
  if (!rest.empty()) {
    if (rest.front() != ':') {
      return Status::InvalidArgument("not a floss spec: '" + spec + "'");
    }
    rest.remove_prefix(1);
    const std::size_t colon = rest.find(':');
    TSAD_RETURN_IF_ERROR(
        ParseSizeToken(rest.substr(0, colon), "window", spec, &params.m));
    if (colon != std::string_view::npos) {
      const std::string_view tail = rest.substr(colon + 1);
      if (tail.find(':') != std::string_view::npos) {
        return Status::InvalidArgument("too many ':' components in '" + spec +
                                       "' (want " + std::string(kGrammar) +
                                       ")");
      }
      TSAD_RETURN_IF_ERROR(
          ParseSizeToken(tail, "buffer", spec, &params.buffer_cap));
    }
  }
  TSAD_RETURN_IF_ERROR(CheckSubsequenceLength("floss", params.m));
  TSAD_RETURN_IF_ERROR(ValidateKernelConfig(params));
  return params;
}

FlossCore::FlossCore(const FlossParams& params)
    : mpx_(KernelConfig(params)), lag_(params.m), ends_(params.m + 1, 0) {}

std::size_t FlossCore::MemoryBytes() const {
  return mpx_.MemoryBytes() + ends_.capacity() * sizeof(std::size_t);
}

Status FlossCore::CheckLength(std::size_t n) const {
  return CheckTwoSubsequences(n, lag_);
}

FlossCore FlossCore::Fresh() const {
  FlossParams params;
  params.m = lag_;
  params.buffer_cap = mpx_.config().buffer_cap;
  return FlossCore(params);
}

Status FlossCore::Deserialize(ByteReader* reader, std::uint64_t seen) {
  counted_ = false;
  TSAD_RETURN_IF_ERROR(mpx_.Deserialize(reader));
  if (mpx_.points_seen() != seen) {
    return Status::InvalidArgument(
        "FLOSS snapshot observed " + std::to_string(seen) +
        " points, its kernel holds " + std::to_string(mpx_.points_seen()));
  }
  return Status::OK();
}

void FlossCore::Recount(std::size_t p) {
  std::fill(ends_.begin(), ends_.end(), 0);
  arcs_ = mpx_.CountRightArcs(p, ends_.data(), ends_.size());
  counted_ = true;
}

double FlossCore::Step(double value) {
  RightChangeLog changes;
  const std::uint64_t evictions = mpx_.evictions();
  mpx_.Push(value, &changes);
  const std::size_t num_subs = mpx_.num_subsequences();
  // Arc-curve edge correction: within `lag` subsequences of either
  // window edge the CAC is pinned to 1 (score 0). The evaluation
  // position sits `lag` behind the newest subsequence, so this reduces
  // to requiring a window of at least 2*lag + 1 subsequences.
  // Once reached, the window never shrinks below this again: a prune
  // keeps at least 3/4 of a buffer of >= 4m points.
  if (num_subs < 2 * lag_ + 1) return 0.0;
  const std::size_t p = num_subs - 1 - lag_;  // local evaluation position
  if (!counted_ || mpx_.evictions() != evictions || changes.overflowed()) {
    Recount(p);
  } else {
    // Global positions: the count moves from P - 1 to P, and every
    // change set some neighbour from `previous` (never j) to j.
    const std::size_t first = mpx_.first_subsequence();
    const std::size_t pos = first + p;
    const std::size_t j = pos + lag_;
    const std::size_t ring = ends_.size();
    for (std::size_t c = 0; c < changes.size; ++c) {
      const RightChangeLog::Change change = changes.entries[c];
      if (change.previous != kNoNeighbor && change.previous > pos - 1) {
        --ends_[change.previous % ring];  // an arc over P - 1 moves to j
      } else if (first + change.local < pos - 1) {
        ++arcs_;  // a new arc over P - 1
      }
      ++ends_[j % ring];
    }
    // Entry P - 1's arc, if any, crosses P (the exclusion zone is at
    // least 1); the arcs ending at P stop crossing.
    if (mpx_.RightNeighbor(p - 1) != kNoNeighbor) ++arcs_;
    arcs_ -= ends_[pos % ring];
    ends_[pos % ring] = 0;
  }
  const double last = static_cast<double>(num_subs - 1);
  const double pd = static_cast<double>(p);
  const double iac = (last - pd) * std::log(last / (last - pd));
  if (!(iac > 0.0)) return 0.0;
  const double cac = std::min(1.0, static_cast<double>(arcs_) / iac);
  return 1.0 - cac;
}

FlossDetector::FlossDetector(const FlossParams& params)
    : params_(params),
      name_("Floss[m=" + std::to_string(params.m) + ",buffer=" +
            std::to_string(params.buffer_cap) + "]") {}

Result<std::vector<double>> FlossDetector::Score(
    const Series& series, std::size_t /*train_length*/) const {
  TSAD_RETURN_IF_ERROR(CheckSubsequenceLength("floss", params_.m));
  TSAD_RETURN_IF_ERROR(ValidateKernelConfig(params_));
  TSAD_RETURN_IF_ERROR(CheckTwoSubsequences(series.size(), params_.m));
  return StepScores(FlossCore(params_), series);
}

}  // namespace tsad
