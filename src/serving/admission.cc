#include "serving/admission.h"

#include <algorithm>
#include <vector>

#include "common/suggest.h"

namespace tsad {

std::string_view StreamPriorityName(StreamPriority priority) {
  switch (priority) {
    case StreamPriority::kCritical:
      return "critical";
    case StreamPriority::kHigh:
      return "high";
    case StreamPriority::kNormal:
      return "normal";
    case StreamPriority::kBatch:
      return "batch";
  }
  return "?";
}

Result<StreamPriority> ParseStreamPriority(std::string_view name) {
  static const std::vector<std::string> kNames = {"critical", "high", "normal",
                                                  "batch"};
  for (int p = 0; p < kNumStreamPriorities; ++p) {
    if (name == kNames[static_cast<std::size_t>(p)]) {
      return static_cast<StreamPriority>(p);
    }
  }
  std::string message = "unknown stream priority '" + std::string(name) +
                        "' (want critical, high, normal, or batch)";
  const std::string suggestion = SuggestClosest(name, kNames);
  if (!suggestion.empty()) {
    message += "; did you mean '" + suggestion + "'?";
  }
  return Status::InvalidArgument(std::move(message));
}

AdmissionDecision PriorityQuotaPolicy::Admit(
    const AdmissionRequest& request) const {
  // Queue-fill ceiling per priority class, as a fraction of capacity.
  constexpr double kFillLimit[kNumStreamPriorities] = {1.0, 0.9, 0.75, 0.5};
  const int p = std::clamp(static_cast<int>(request.priority), 0,
                           kNumStreamPriorities - 1);
  if (request.queue_capacity > 0) {
    const double ceiling = kFillLimit[static_cast<std::size_t>(p)] *
                           static_cast<double>(request.queue_capacity);
    if (static_cast<double>(request.queue_depth) >= ceiling) {
      return AdmissionDecision::kDeny;
    }
  }
  const auto it = config_.tenant_quota.find(std::string(request.tenant));
  if (it != config_.tenant_quota.end() && it->second > 0 &&
      request.tenant_in_flight >= it->second) {
    return AdmissionDecision::kDeny;
  }
  return AdmissionDecision::kAdmit;
}

}  // namespace tsad
