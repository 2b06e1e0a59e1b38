#include "robustness/fault_injector.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "common/stats.h"

namespace tsad {

namespace {

// Scale for magnitude-based faults, taken over the finite entries only
// so that stacked missing-marker faults do not poison later ones.
double FiniteStd(const Series& x) {
  Series finite;
  finite.reserve(x.size());
  for (double v : x) {
    if (std::isfinite(v)) finite.push_back(v);
  }
  const double sd = StdDev(finite);
  return sd > 0.0 ? sd : 1.0;
}

// Start index of a width-`w` window placed uniformly at random.
std::size_t RandomStart(std::size_t n, std::size_t w, Rng& rng) {
  if (w >= n) return 0;
  return static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<int64_t>(n - w)));
}

void ApplyOne(Series& x, const FaultSpec& fault, Rng& rng) {
  const std::size_t n = x.size();
  if (n == 0 || fault.severity <= 0.0) return;
  const double severity = std::min(fault.severity, 1.0);

  switch (fault.type) {
    case FaultType::kNanMissing:
      for (double& v : x) {
        if (rng.Bernoulli(severity)) {
          v = std::numeric_limits<double>::quiet_NaN();
        }
      }
      break;
    case FaultType::kSentinelMissing:
      for (double& v : x) {
        if (rng.Bernoulli(severity)) v = kDefaultSentinel;
      }
      break;
    case FaultType::kDropout: {
      const std::size_t w = std::max<std::size_t>(
          1, static_cast<std::size_t>(severity * static_cast<double>(n)));
      const std::size_t begin = RandomStart(n, w, rng);
      const std::size_t end = std::min(n, begin + w);
      for (std::size_t i = begin; i < end; ++i) {
        x[i] = std::numeric_limits<double>::quiet_NaN();
      }
      break;
    }
    case FaultType::kStuckAt: {
      const std::size_t w = std::max<std::size_t>(
          2, static_cast<std::size_t>(severity * static_cast<double>(n)));
      const std::size_t begin = RandomStart(n, w, rng);
      const std::size_t end = std::min(n, begin + w);
      for (std::size_t i = begin + 1; i < end; ++i) x[i] = x[begin];
      break;
    }
    case FaultType::kSpikeBurst: {
      const double sd = FiniteStd(x);
      const std::size_t count = std::max<std::size_t>(
          1, static_cast<std::size_t>(severity * static_cast<double>(n)));
      for (std::size_t k = 0; k < count; ++k) {
        const std::size_t i = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<int64_t>(n) - 1));
        const double sign = rng.Bernoulli(0.5) ? 1.0 : -1.0;
        if (std::isfinite(x[i])) {
          x[i] += sign * sd * rng.Uniform(6.0, 10.0);
        }
      }
      break;
    }
    case FaultType::kClipping: {
      Series finite;
      finite.reserve(n);
      for (double v : x) {
        if (std::isfinite(v)) finite.push_back(v);
      }
      if (finite.size() < 2) break;
      const double lo = Quantile(finite, severity / 2.0);
      const double hi = Quantile(finite, 1.0 - severity / 2.0);
      for (double& v : x) {
        if (std::isfinite(v)) v = std::clamp(v, lo, hi);
      }
      break;
    }
    case FaultType::kQuantization: {
      const double step = severity * FiniteStd(x);
      if (step <= 0.0) break;
      for (double& v : x) {
        if (std::isfinite(v)) v = std::round(v / step) * step;
      }
      break;
    }
    case FaultType::kAdditiveNoise: {
      const double sd = FiniteStd(x);
      for (double& v : x) {
        if (std::isfinite(v)) v += rng.Gaussian(0.0, fault.severity * sd);
      }
      break;
    }
  }
}

}  // namespace

const std::vector<FaultType>& AllFaultTypes() {
  static const std::vector<FaultType> kAll = {
      FaultType::kNanMissing, FaultType::kSentinelMissing,
      FaultType::kDropout,    FaultType::kStuckAt,
      FaultType::kSpikeBurst, FaultType::kClipping,
      FaultType::kQuantization, FaultType::kAdditiveNoise,
  };
  return kAll;
}

std::string_view FaultTypeName(FaultType type) {
  switch (type) {
    case FaultType::kNanMissing:
      return "nan-missing";
    case FaultType::kSentinelMissing:
      return "sentinel-missing";
    case FaultType::kDropout:
      return "dropout-gap";
    case FaultType::kStuckAt:
      return "stuck-at";
    case FaultType::kSpikeBurst:
      return "spike-burst";
    case FaultType::kClipping:
      return "clipping";
    case FaultType::kQuantization:
      return "quantization";
    case FaultType::kAdditiveNoise:
      return "additive-noise";
  }
  return "?";
}

Series FaultInjector::Apply(const Series& clean) const {
  Series out = clean;
  Rng master(seed_);
  // One forked stream per fault: appending a fault never changes the
  // realization of the ones before it.
  for (std::size_t k = 0; k < faults_.size(); ++k) {
    Rng stream = master.Fork(k);
    ApplyOne(out, faults_[k], stream);
  }
  return out;
}

LabeledSeries FaultInjector::Apply(const LabeledSeries& clean) const {
  LabeledSeries out = clean;
  out.mutable_values() = Apply(clean.values());
  return out;
}

// ---------------------------------------------------------------------
// Serving-path faults.

namespace {

std::uint64_t Fnv1aHash(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

ServingFaultState::ServingFaultState(uint64_t seed,
                                     std::string_view stream_id,
                                     const ServingFaultPlan& plan) {
  if (plan.horizon == 0) return;
  // Keyed by stream id, not registration order, so the schedule is
  // invariant to shard placement and harness iteration order.
  Rng rng(seed ^ Fnv1aHash(stream_id));
  if (rng.Bernoulli(plan.detector_error_rate)) {
    error_index_ = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int64_t>(plan.horizon) - 1));
  }
  if (rng.Bernoulli(plan.deadline_storm_rate)) {
    storm_index_ = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int64_t>(plan.horizon) - 1));
  }
  // Two faults on the same point would mask each other (the first one
  // quarantines the stream and the replay skips the second's trigger
  // check only once it refires) — nudge the storm off the collision.
  if (storm_index_ != kNone && storm_index_ == error_index_) {
    storm_index_ = (storm_index_ + 1) % plan.horizon;
    if (storm_index_ == error_index_) storm_index_ = kNone;  // horizon 1
  }
}

std::optional<ServingFaultType> ServingFaultState::Fire(std::size_t index) {
  if (!error_fired_ && index == error_index_) {
    error_fired_ = true;
    return ServingFaultType::kDetectorError;
  }
  if (!storm_fired_ && index == storm_index_) {
    storm_fired_ = true;
    return ServingFaultType::kDeadlineStorm;
  }
  return std::nullopt;
}

ChaosOnlineDetector::ChaosOnlineDetector(
    std::unique_ptr<OnlineDetector> inner,
    std::shared_ptr<ServingFaultState> faults)
    : inner_(std::move(inner)), faults_(std::move(faults)) {}

Status ChaosOnlineDetector::Observe(double value,
                                    std::vector<ScoredPoint>* out) {
  if (faults_ != nullptr) {
    // The stream position is the inner detector's observed count: after
    // a checkpoint Restore it rewinds with the state, so a replay walks
    // the same indices past the (already-fired) fault.
    const std::size_t index = inner_->observed();
    if (std::optional<ServingFaultType> fault = faults_->Fire(index)) {
      switch (*fault) {
        case ServingFaultType::kDetectorError:
          return Status::Internal("chaos: injected detector error at point " +
                                  std::to_string(index));
        case ServingFaultType::kDeadlineStorm:
          return Status::DeadlineExceeded(
              "chaos: injected deadline storm at point " +
              std::to_string(index));
        default:
          break;  // harness-driven types never fire here
      }
    }
  }
  TSAD_RETURN_IF_ERROR(inner_->Observe(value, out));
  ++observed_;
  return Status::OK();
}

Status ChaosOnlineDetector::Flush(std::vector<ScoredPoint>* out) {
  return inner_->Flush(out);
}

Result<std::string> ChaosOnlineDetector::Snapshot() const {
  return inner_->Snapshot();
}

Status ChaosOnlineDetector::Restore(std::string_view blob) {
  TSAD_RETURN_IF_ERROR(inner_->Restore(blob));
  observed_ = inner_->observed();
  return Status::OK();
}

std::string CorruptBlob(std::string_view blob, uint64_t seed,
                        std::size_t flips) {
  std::string out(blob);
  if (out.empty() || flips == 0) return out;
  Rng rng(seed);
  // Skip the leading length prefix when the blob is big enough to have
  // payload, so the damage exercises real decode paths.
  const std::size_t lo = out.size() > 16 ? 8 : 0;
  for (std::size_t k = 0; k < flips; ++k) {
    const std::size_t i = static_cast<std::size_t>(rng.UniformInt(
        static_cast<int64_t>(lo), static_cast<int64_t>(out.size()) - 1));
    const auto mask = static_cast<unsigned char>(rng.UniformInt(1, 255));
    out[i] = static_cast<char>(static_cast<unsigned char>(out[i]) ^ mask);
  }
  return out;
}

}  // namespace tsad
