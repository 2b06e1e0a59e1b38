#include "core/ucr_archive.h"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "common/parallel.h"
#include "core/triviality.h"
#include "datasets/domains.h"
#include "datasets/gait.h"
#include "datasets/generators.h"
#include "datasets/physio.h"
#include "detectors/discord.h"

namespace tsad {

namespace {

constexpr std::string_view kPrefix = "UCR_Anomaly_";

bool ParseSizeT(std::string_view sv, std::size_t* out) {
  if (sv.empty()) return false;
  auto [ptr, ec] = std::from_chars(sv.data(), sv.data() + sv.size(), *out);
  return ec == std::errc() && ptr == sv.data() + sv.size();
}

}  // namespace

std::string FormatUcrName(const UcrName& name) {
  return std::string(kPrefix) + name.base + "_" +
         std::to_string(name.train_length) + "_" +
         std::to_string(name.anomaly_begin) + "_" +
         std::to_string(name.anomaly_end);
}

Result<UcrName> ParseUcrName(const std::string& name) {
  std::string_view sv = name;
  if (sv.substr(0, kPrefix.size()) == kPrefix) sv.remove_prefix(kPrefix.size());
  // The last three '_'-separated fields are train/begin/end; everything
  // before them is the base name (which may itself contain '_').
  std::size_t fields[3];
  std::string_view rest = sv;
  for (int f = 2; f >= 0; --f) {
    const std::size_t pos = rest.rfind('_');
    if (pos == std::string_view::npos) {
      return Status::InvalidArgument("UCR name '" + name +
                                     "': fewer than 3 numeric fields");
    }
    if (!ParseSizeT(rest.substr(pos + 1), &fields[f])) {
      return Status::InvalidArgument("UCR name '" + name +
                                     "': non-numeric field '" +
                                     std::string(rest.substr(pos + 1)) + "'");
    }
    rest = rest.substr(0, pos);
  }
  if (rest.empty()) {
    return Status::InvalidArgument("UCR name '" + name + "': empty base");
  }
  UcrName parsed;
  parsed.base = std::string(rest);
  parsed.train_length = fields[0];
  parsed.anomaly_begin = fields[1];
  parsed.anomaly_end = fields[2];
  if (parsed.anomaly_begin >= parsed.anomaly_end) {
    return Status::InvalidArgument("UCR name '" + name +
                                   "': anomaly begin >= end");
  }
  if (parsed.anomaly_begin < parsed.train_length) {
    return Status::InvalidArgument(
        "UCR name '" + name + "': anomaly begins inside the training prefix");
  }
  return parsed;
}

Status ValidateUcrDataset(const LabeledSeries& series) {
  TSAD_RETURN_IF_ERROR(series.Validate());
  if (series.anomalies().size() != 1) {
    return Status::InvalidArgument(
        "UCR dataset '" + series.name() + "' must have exactly one anomaly; " +
        std::to_string(series.anomalies().size()) + " found");
  }
  if (series.train_length() == 0) {
    return Status::InvalidArgument("UCR dataset '" + series.name() +
                                   "' has no training prefix");
  }
  const AnomalyRegion& a = series.anomalies().front();
  if (a.begin < series.train_length()) {
    return Status::InvalidArgument("UCR dataset '" + series.name() +
                                   "': anomaly inside the training prefix");
  }
  // If the name is UCR-formatted, it must agree with the labels.
  Result<UcrName> parsed = ParseUcrName(series.name());
  if (parsed.ok()) {
    if (parsed->train_length != series.train_length() ||
        parsed->anomaly_begin != a.begin || parsed->anomaly_end != a.end) {
      return Status::InvalidArgument(
          "UCR dataset '" + series.name() +
          "': name fields disagree with the actual labels [" +
          std::to_string(a.begin) + ", " + std::to_string(a.end) +
          ") / train " + std::to_string(series.train_length()));
    }
  }
  return Status::OK();
}

std::string_view UcrInjectionName(UcrInjection kind) {
  switch (kind) {
    case UcrInjection::kSpike:
      return "spike";
    case UcrInjection::kDropout:
      return "dropout";
    case UcrInjection::kFreeze:
      return "freeze";
    case UcrInjection::kSmoothHump:
      return "smooth-hump";
    case UcrInjection::kTimeWarp:
      return "time-warp";
  }
  return "?";
}

Result<LabeledSeries> MakeUcrDataset(const std::string& base_name,
                                     Series base_values,
                                     std::size_t train_length,
                                     UcrInjection kind, Rng& rng,
                                     double scale) {
  scale = std::max(1e-3, scale);
  const std::size_t n = base_values.size();
  if (train_length < 64 || train_length + 256 > n) {
    return Status::InvalidArgument(
        "base series too short for train split: n = " + std::to_string(n) +
        ", train = " + std::to_string(train_length));
  }
  // Scale anomaly size with the base signal's spread.
  double lo = base_values[0], hi = base_values[0];
  for (double v : base_values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double spread = std::max(1e-9, hi - lo);

  const std::size_t width =
      static_cast<std::size_t>(rng.UniformInt(24, 96));
  const std::size_t pos = PickPosition(rng, train_length + 32, n - 32, width,
                                       /*end_bias=*/0.0);
  AnomalyRegion region;
  switch (kind) {
    case UcrInjection::kSpike:
      region = InjectSpike(base_values, pos,
                           scale * spread * rng.Uniform(0.5, 1.0) *
                               (rng.Bernoulli(0.5) ? 1.0 : -1.0));
      break;
    case UcrInjection::kDropout:
      region = InjectDropout(base_values, pos,
                             static_cast<std::size_t>(rng.UniformInt(1, 4)),
                             lo - scale * spread * 0.5);
      break;
    case UcrInjection::kFreeze: {
      const std::size_t w = std::max<std::size_t>(
          4, static_cast<std::size_t>(scale * static_cast<double>(width)));
      region = InjectFreeze(base_values, pos, w);
      break;
    }
    case UcrInjection::kSmoothHump:
      region = InjectSmoothHump(base_values, pos, width,
                                scale * spread * rng.Uniform(0.15, 0.3) *
                                    (rng.Bernoulli(0.5) ? 1.0 : -1.0));
      break;
    case UcrInjection::kTimeWarp:
      region = InjectTimeWarp(base_values, pos, std::max<std::size_t>(width, 48),
                              1.0 + scale * rng.Uniform(0.4, 0.8));
      break;
  }
  if (region.length() == 0) {
    return Status::Internal("injection produced an empty region");
  }
  UcrName name;
  name.base = base_name;
  name.train_length = train_length;
  name.anomaly_begin = region.begin;
  name.anomaly_end = region.end;
  return LabeledSeries(FormatUcrName(name), std::move(base_values), {region},
                       train_length);
}

std::string_view UcrDifficultyName(UcrDifficulty difficulty) {
  switch (difficulty) {
    case UcrDifficulty::kTrivial:
      return "trivial";
    case UcrDifficulty::kModerate:
      return "moderate";
    case UcrDifficulty::kHard:
      return "hard";
  }
  return "?";
}

UcrDifficulty RateDifficulty(const LabeledSeries& series,
                             std::size_t discord_window) {
  // Trivial: the one-liner brute force solves it (a generous slop is
  // used because a spike's recovery edge lands next to the region).
  SolveCriteria criteria;
  criteria.slop = std::max<std::size_t>(3, discord_window / 8);
  // Demand decisive separation so a noise fluke inside a wide labeled
  // region does not rate the dataset "trivial".
  criteria.min_headroom = 0.5;
  if (FindOneLiner(series, OneLinerSearchSpace{}, criteria).solved) {
    return UcrDifficulty::kTrivial;
  }
  // Moderate: a fixed-window discord's argmax is a correct UCR answer.
  DiscordDetector discord(discord_window);
  Result<std::vector<double>> scores =
      discord.Score(series.values(), series.train_length());
  if (scores.ok()) {
    const std::size_t peak =
        PredictLocation(*scores, series.train_length());
    if (peak != kNoPrediction &&
        UcrCorrect(series.anomalies().front(), peak)) {
      return UcrDifficulty::kModerate;
    }
  }
  return UcrDifficulty::kHard;
}

Result<LabeledSeries> MakeCalibratedUcrDataset(
    const std::string& base_name, const Series& base_values,
    std::size_t train_length, UcrInjection kind, uint64_t seed,
    UcrDifficulty target) {
  constexpr std::size_t kMaxIterations = 10;
  // Every attempt replays the identical RNG stream, so the anomaly's
  // position and flavor stay fixed while only the magnitude moves.
  auto attempt = [&](double scale) -> Result<LabeledSeries> {
    Rng rng(seed);
    return MakeUcrDataset(base_name, base_values, train_length, kind, rng,
                          scale);
  };

  double lo = 0.02, hi = 8.0, scale = 1.0;
  for (std::size_t iter = 0; iter < kMaxIterations; ++iter) {
    TSAD_ASSIGN_OR_RETURN(LabeledSeries made, attempt(scale));
    const UcrDifficulty rated = RateDifficulty(made);
    if (rated == target) return made;
    // Larger magnitude -> easier. Move toward the target.
    const bool too_easy = static_cast<int>(rated) < static_cast<int>(target);
    if (too_easy) {
      hi = scale;
    } else {
      lo = scale;
    }
    scale = 0.5 * (lo + hi);
  }
  return Status::NotFound(
      "no magnitude in [0.02, 8] x default reaches difficulty '" +
      std::string(UcrDifficultyName(target)) + "' for base '" + base_name +
      "' with " + std::string(UcrInjectionName(kind)));
}

UcrArchive BuildDemoArchive(uint64_t seed) {
  UcrArchive archive;
  Rng master(seed);

  // 1-2: physiology (natural anomalies confirmed out-of-band, §3.1).
  {
    PhysioConfig cfg;
    cfg.seed = master.Fork(1).NextUint64();
    cfg.duration_sec = 60.0;
    EcgPlethPair pair = GenerateBidmcPair(cfg, 2500);
    archive.datasets.push_back(std::move(pair.pleth));

    PhysioConfig ecg_cfg;
    ecg_cfg.seed = master.Fork(2).NextUint64();
    LabeledSeries ecg = GenerateEcgWithPvc(ecg_cfg);
    ecg.set_train_length(3000);
    UcrName name;
    name.base = "ECG1";
    name.train_length = 3000;
    name.anomaly_begin = ecg.anomalies().front().begin;
    name.anomaly_end = ecg.anomalies().front().end;
    ecg.set_name(FormatUcrName(name));
    archive.datasets.push_back(std::move(ecg));
  }
  // 3: gait (synthetic-but-plausible insertion, §3.2).
  {
    GaitConfig cfg;
    cfg.seed = master.Fork(3).NextUint64();
    archive.datasets.push_back(GenerateGaitData(cfg).series);
  }
  // 4+: injected anomalies on clean industrial-style bases, one per
  // injection kind, spanning trivial (dropout/spike) to hard
  // (time warp).
  const UcrInjection kinds[] = {UcrInjection::kSpike, UcrInjection::kDropout,
                                UcrInjection::kFreeze,
                                UcrInjection::kSmoothHump,
                                UcrInjection::kTimeWarp};
  std::size_t idx = 0;
  for (UcrInjection kind : kinds) {
    Rng rng = master.Fork(10 + idx);
    const std::size_t n = 8000;
    Series base = Mix({Sinusoid(n, 160.0, 1.0, rng.Uniform(0.0, 6.28)),
                       Sinusoid(n, 37.0, 0.25, 1.1),
                       GaussianNoise(n, 0.03, rng)});
    Result<LabeledSeries> made =
        MakeUcrDataset("industrial" + std::to_string(idx + 1),
                       std::move(base), 2000, kind, rng);
    if (made.ok()) archive.datasets.push_back(std::move(made.value()));
    ++idx;
  }
  return archive;
}

UcrArchive BuildFullArchive(uint64_t seed) {
  UcrArchive archive = BuildDemoArchive(seed);

  struct Domain {
    const char* base;
    Series (*make)(std::size_t, Rng&);
    std::size_t length;
    std::size_t train;
  };
  const Domain domains[] = {
      {"insect_wingbeat", &InsectWingbeat, 9000, 2500},
      {"robot_joint", &RobotJointTelemetry, 10000, 3000},
      {"plant_historian", &IndustrialProcessValue, 12000, 4000},
      {"pedestrian", &PedestrianCounts, 8064, 2688},  // 12 weeks, train 4
      {"sat_bus", &SpacecraftTelemetry, 10000, 3000},
  };
  const UcrInjection kinds[] = {UcrInjection::kSpike, UcrInjection::kDropout,
                                UcrInjection::kFreeze,
                                UcrInjection::kSmoothHump,
                                UcrInjection::kTimeWarp};

  Rng master(seed ^ 0x5eedULL);
  std::size_t stream = 100;
  for (const Domain& domain : domains) {
    // One dataset per injection kind per domain, rotated so every
    // domain still contributes the full difficulty spectrum.
    for (UcrInjection kind : kinds) {
      Rng rng = master.Fork(stream++);
      Series base = domain.make(domain.length, rng);
      Result<LabeledSeries> made = MakeUcrDataset(
          std::string(domain.base) + "_" +
              std::string(UcrInjectionName(kind)),
          std::move(base), domain.train, kind, rng);
      if (made.ok()) archive.datasets.push_back(std::move(made.value()));
    }
  }
  return archive;
}

UcrAccuracy EvaluateOnArchive(const AnomalyDetector& detector,
                              const UcrArchive& archive) {
  // Each dataset is scored independently; the per-series loop fans out
  // over the pool, and outcomes land in archive order.
  auto score_one = [&](std::size_t i) -> UcrSeriesOutcome {
    const LabeledSeries& series = archive.datasets[i];
    UcrSeriesOutcome outcome;
    outcome.series_name = series.name();
    if (!series.anomalies().empty()) {
      outcome.anomaly = series.anomalies().front();
    }
    Result<std::vector<double>> scores = detector.Score(series);
    if (scores.ok()) {
      const std::size_t peak =
          PredictLocation(*scores, series.train_length());
      if (peak != kNoPrediction && series.anomalies().size() == 1) {
        outcome.predicted = peak;
        outcome.correct = UcrCorrect(series.anomalies().front(), peak);
      }
    } else {
      outcome.series_name += " [detector error: " +
                             scores.status().ToString() + "]";
    }
    return outcome;
  };

  const std::size_t n = archive.datasets.size();
  UcrAccuracy accuracy;
  Result<std::vector<UcrSeriesOutcome>> outcomes =
      ParallelMap<UcrSeriesOutcome>(
          n, [&](std::size_t i) -> Result<UcrSeriesOutcome> {
            return score_one(i);
          });
  if (outcomes.ok()) {
    accuracy.outcomes = std::move(*outcomes);
  } else {  // a contained worker exception: score serially
    for (std::size_t i = 0; i < n; ++i) {
      accuracy.outcomes.push_back(score_one(i));
    }
  }
  accuracy.total = n;
  for (const UcrSeriesOutcome& outcome : accuracy.outcomes) {
    if (outcome.correct) ++accuracy.correct;
  }
  return accuracy;
}

}  // namespace tsad
