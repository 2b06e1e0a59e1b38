#include "detectors/registry.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <string_view>

#include "common/suggest.h"
#include "detectors/control_chart.h"
#include "detectors/cusum.h"
#include "detectors/discord.h"
#include "detectors/floss.h"
#include "detectors/merlin.h"
#include "detectors/moving_zscore.h"
#include "detectors/naive.h"
#include "detectors/oneliner.h"
#include "detectors/seasonal_esd.h"
#include "detectors/semisup_discord.h"
#include "detectors/spectral_residual.h"
#include "detectors/streaming_discord.h"
#include "detectors/telemanom.h"
#include "robustness/resilient.h"

namespace tsad {

namespace {

using Params = std::map<std::string, double>;

// Parses "name:key=value,key=value" into name + params.
Status ParseSpec(const std::string& spec, std::string* name, Params* params) {
  const std::size_t colon = spec.find(':');
  *name = spec.substr(0, colon);
  if (name->empty()) return Status::InvalidArgument("empty detector name");
  if (colon == std::string::npos) return Status::OK();

  std::string_view rest = std::string_view(spec).substr(colon + 1);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view pair = rest.substr(0, comma);
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return Status::InvalidArgument("bad parameter '" + std::string(pair) +
                                     "' (want key=value)");
    }
    const std::string key(pair.substr(0, eq));
    const std::string_view value = pair.substr(eq + 1);
    double v = 0.0;
    auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), v);
    // from_chars also takes "nan" and "inf", which no parameter means.
    if (ec != std::errc() || ptr != value.data() + value.size() ||
        !std::isfinite(v)) {
      return Status::InvalidArgument("bad numeric value '" +
                                     std::string(value) + "' for key '" + key +
                                     "'");
    }
    (*params)[key] = v;
    rest = comma == std::string_view::npos ? std::string_view()
                                           : rest.substr(comma + 1);
  }
  return Status::OK();
}

// Pops a parameter (with default); leftover keys and the first value
// GetSize() refused are reported as errors by Finish().
class ParamReader {
 public:
  explicit ParamReader(Params params) : params_(std::move(params)) {}

  double Get(const std::string& key, double fallback) {
    auto it = params_.find(key);
    if (it == params_.end()) return fallback;
    const double v = it->second;
    params_.erase(it);
    return v;
  }
  // A size (window, order, count) must be a non-negative integer below
  // 2^digits: casting anything else to std::size_t is undefined.
  std::size_t GetSize(const std::string& key, std::size_t fallback) {
    const double v = Get(key, static_cast<double>(fallback));
    if (v >= 0.0 && v == std::floor(v) &&
        v < std::ldexp(1.0, std::numeric_limits<std::size_t>::digits)) {
      return static_cast<std::size_t>(v);
    }
    if (error_.ok()) {
      char text[32];
      char* end = std::to_chars(text, text + sizeof(text), v).ptr;
      error_ = Status::InvalidArgument(
          "bad value '" + std::string(text, end) + "' for key '" + key +
          "' (want a non-negative integer)");
    }
    return fallback;
  }

  Status Finish(const std::string& detector) const {
    if (!error_.ok()) return error_;
    if (params_.empty()) return Status::OK();
    return Status::InvalidArgument("unknown parameter '" +
                                   params_.begin()->first + "' for detector '" +
                                   detector + "'");
  }

 private:
  Params params_;
  Status error_;
};

// The registered name closest to `name`, via the shared "did you mean"
// helper (common/suggest.h): plausible typos get the nearest registered
// name, ties break to registration order. Prefix heads ("resilient")
// join the candidate pool so typo'd prefixed specs resolve too.
std::string SuggestDetectorName(std::string_view name) {
  std::vector<std::string> candidates = RegisteredDetectorNames();
  candidates.push_back("resilient");
  return SuggestClosest(name, candidates);
}

// Shared unknown-name error: the flat names, the prefix grammars, and
// the did-you-mean hint.
Status UnknownDetectorError(const std::string& name) {
  std::string message = "unknown detector '" + name + "'; known:";
  for (const std::string& known : RegisteredDetectorNames()) {
    message += ' ' + known;
  }
  message += "; prefixes:";
  for (const std::string& prefix : RegisteredDetectorPrefixes()) {
    message += ' ' + prefix;
  }
  const std::string suggestion = SuggestDetectorName(name);
  if (!suggestion.empty()) {
    message += "; did you mean '" + suggestion + "'?";
  }
  return Status::NotFound(message);
}

bool IsRegisteredDetectorName(const std::string& name) {
  const std::vector<std::string> names = RegisteredDetectorNames();
  return std::find(names.begin(), names.end(), name) != names.end();
}

constexpr std::string_view kResilientPrefix = "resilient:";

// Builds the full hardened pipeline around `inner_spec`: the primary
// detector, its simplified-configuration retry (when the spec has
// anything to simplify) and the moving z-score fallback.
Result<std::unique_ptr<AnomalyDetector>> MakeResilient(
    const std::string& inner_spec) {
  TSAD_ASSIGN_OR_RETURN(std::unique_ptr<AnomalyDetector> inner,
                        MakeDetector(inner_spec));
  std::unique_ptr<AnomalyDetector> simplified;
  const std::string simplified_spec = SimplifyDetectorSpec(inner_spec);
  if (simplified_spec != inner_spec) {
    TSAD_ASSIGN_OR_RETURN(simplified, MakeDetector(simplified_spec));
  }
  TSAD_ASSIGN_OR_RETURN(std::unique_ptr<AnomalyDetector> fallback,
                        MakeDetector("zscore:w=64"));
  return std::unique_ptr<AnomalyDetector>(std::make_unique<ResilientDetector>(
      std::move(inner), std::move(simplified), std::move(fallback)));
}

}  // namespace

Result<std::unique_ptr<AnomalyDetector>> MakeDetector(
    const std::string& spec) {
  if (const std::optional<std::string> inner = ResilientInnerSpec(spec)) {
    return MakeResilient(*inner);
  }
  // floss uses a positional grammar (floss:<window>[:<buffer>]), so it
  // is dispatched before the key=value spec parser.
  if (spec == "floss" || spec.rfind("floss:", 0) == 0) {
    TSAD_ASSIGN_OR_RETURN(FlossParams floss_params, ParseFlossSpec(spec));
    return std::unique_ptr<AnomalyDetector>(
        std::make_unique<FlossDetector>(floss_params));
  }
  std::string name;
  Params params;
  const Status parsed = ParseSpec(spec, &name, &params);
  if (!parsed.ok()) {
    // A malformed parameter list under an UNKNOWN name is a typo'd
    // detector, not a parameter error — prefer the NotFound path so
    // e.g. "flos:32" suggests 'floss' instead of complaining about
    // key=value syntax.
    if (!name.empty() && !IsRegisteredDetectorName(name)) {
      return UnknownDetectorError(name);
    }
    return parsed;
  }
  ParamReader reader(std::move(params));
  std::unique_ptr<AnomalyDetector> detector;

  if (name == "discord") {
    detector = std::make_unique<DiscordDetector>(reader.GetSize("m", 128));
  } else if (name == "semisup") {
    detector =
        std::make_unique<SemiSupervisedDiscordDetector>(reader.GetSize("m", 128));
  } else if (name == "streaming") {
    const std::size_t m = reader.GetSize("m", 128);
    detector = std::make_unique<StreamingDiscordDetector>(
        m, reader.GetSize("burnin", 0));
  } else if (name == "merlin") {
    const std::size_t min = reader.GetSize("min", 48);
    const std::size_t max = reader.GetSize("max", 96);
    TSAD_RETURN_IF_ERROR(reader.Finish(name));
    TSAD_RETURN_IF_ERROR(ValidateMerlinLengths(min, max));
    detector = std::make_unique<MerlinDetector>(min, max);
  } else if (name == "telemanom") {
    TelemanomConfig config;
    config.ar_order = reader.GetSize("ar", config.ar_order);
    config.ewma_alpha = reader.Get("alpha", config.ewma_alpha);
    config.ridge = reader.Get("ridge", config.ridge);
    detector = std::make_unique<TelemanomDetector>(config);
  } else if (name == "zscore") {
    detector = std::make_unique<MovingZScoreDetector>(reader.GetSize("w", 64));
  } else if (name == "cusum") {
    detector = std::make_unique<CusumDetector>(reader.Get("drift", 0.5),
                                               reader.Get("reset", 0.0));
  } else if (name == "ewma") {
    detector = std::make_unique<EwmaChartDetector>(reader.Get("lambda", 0.2));
  } else if (name == "pagehinkley") {
    detector = std::make_unique<PageHinkleyDetector>(reader.Get("delta", 0.05));
  } else if (name == "maxdiff") {
    detector = std::make_unique<MaxAbsDiffDetector>();
  } else if (name == "constantrun") {
    detector = std::make_unique<ConstantRunDetector>(reader.GetSize("min", 3));
  } else if (name == "lastpoint") {
    detector = std::make_unique<LastPointDetector>();
  } else if (name == "sesd") {
    detector = std::make_unique<SeasonalEsdDetector>(reader.GetSize("p", 0));
  } else if (name == "sr") {
    detector = std::make_unique<SpectralResidualDetector>(
        reader.GetSize("q", 3), reader.GetSize("z", 21));
  } else if (name == "oneliner") {
    OneLinerParams p;
    p.use_abs = reader.Get("abs", 1.0) != 0.0;
    p.use_movmean = reader.Get("u", 0.0) != 0.0;
    p.k = reader.GetSize("k", 5);
    p.c = reader.Get("c", 0.0);
    p.b = reader.Get("b", 0.0);
    detector = std::make_unique<OneLinerDetector>(p);
  } else {
    return UnknownDetectorError(name);
  }
  TSAD_RETURN_IF_ERROR(reader.Finish(name));
  return detector;
}

std::vector<std::string> RegisteredDetectorNames() {
  return {"discord",  "semisup", "streaming",   "merlin",
          "telemanom", "zscore", "cusum",       "ewma",
          "pagehinkley", "maxdiff", "constantrun", "lastpoint",
          "oneliner", "sesd", "sr", "floss"};
}

std::vector<std::string> RegisteredDetectorPrefixes() {
  return {"resilient:<spec>", "floss:<window>[:<buffer>]"};
}

std::optional<std::string> ResilientInnerSpec(std::string_view spec) {
  if (spec.rfind(kResilientPrefix, 0) != 0) return std::nullopt;
  return std::string(spec.substr(kResilientPrefix.size()));
}

std::string SimplifyDetectorSpec(const std::string& spec) {
  if (const std::optional<std::string> inner = ResilientInnerSpec(spec)) {
    return std::string(kResilientPrefix) + SimplifyDetectorSpec(*inner);
  }
  // floss's positional grammar: halve the window (floor 16), keep any
  // explicit buffer component. The halved spec stays valid because the
  // buffer >= 4*m constraint only loosens as m shrinks.
  if (spec == "floss" || spec.rfind("floss:", 0) == 0) {
    const Result<FlossParams> parsed = ParseFlossSpec(spec);
    if (!parsed.ok()) return spec;
    const std::size_t halved = std::max<std::size_t>(16, parsed->m / 2);
    if (halved >= parsed->m) return spec;
    std::string out = "floss:" + std::to_string(halved);
    const std::size_t first = spec.find(':');
    const std::size_t second =
        first == std::string::npos ? std::string::npos
                                   : spec.find(':', first + 1);
    if (second != std::string::npos) out += spec.substr(second);
    return out;
  }
  std::string name;
  Params params;
  if (!ParseSpec(spec, &name, &params).ok()) return spec;

  bool changed = false;
  // Halves `key` (starting from the registry default when absent),
  // never dropping below `floor`.
  const auto halve = [&](const std::string& key, double fallback,
                         double floor) {
    const auto it = params.find(key);
    const double v = it != params.end() ? it->second : fallback;
    const double halved = std::max(floor, std::floor(v / 2.0));
    if (halved < v) {
      params[key] = halved;
      changed = true;
    }
  };
  if (name == "discord" || name == "semisup" || name == "streaming") {
    halve("m", 128, 16);
  } else if (name == "merlin") {
    halve("min", 48, 8);
    halve("max", 96, 16);
  } else if (name == "telemanom") {
    halve("ar", 32, 4);
  } else if (name == "zscore") {
    halve("w", 64, 4);
  }
  if (!changed) return spec;

  std::string out = name;
  char sep = ':';
  char buf[64];
  for (const auto& [key, value] : params) {
    std::snprintf(buf, sizeof(buf), "%c%s=%g", sep, key.c_str(), value);
    out += buf;
    sep = ',';
  }
  return out;
}

}  // namespace tsad
