// discovery workload: discord discovery on long single-anomaly
// recordings from BuildFullArchive plus Yahoo-length series. Per input:
// self-join + TopDiscords, AB-join of the test span against the train
// prefix, the left profile (discord_s), and MerlinSweep(x, 48, 96)
// (merlin_s). The inputs fall on both sides of today's 2048-subsequence
// STOMP/MPX size rule and include recordings where MERLIN's pan
// pruning works well and badly (pedestrian counts, trimmed to keep a
// run affordable). Each timing is the sum over inputs of the input's
// median over the passes.
//
// The gate rechecks sampled profile entries and every MERLIN discord's
// distance with a brute-force z-normalized nearest-neighbour search
// written here, within the profile-equivalence tolerance (squared
// distances within 2m * 1e-5), and checks at three lengths that the
// MERLIN discord is as far from its neighbour as the self-join's top
// discord.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "core/ucr_archive.h"
#include "datasets/yahoo.h"
#include "detectors/merlin.h"
#include "substrates/matrix_profile.h"

namespace perfbench {

namespace {

constexpr std::size_t kM = 64;                  // discord window
constexpr std::size_t kMerlinMin = 48, kMerlinMax = 96;
constexpr std::size_t kSizeRule = 2048;          // today's STOMP/MPX switch
constexpr std::size_t kPedestrianPoints = 768;   // trimmed recordings
constexpr std::size_t kYahooInputs = 8;
constexpr double kCorrTolerance = 1e-5;          // profile-equivalence bound

struct Input {
  std::string name;
  tsad::Series values;
  std::size_t train = 0;
  // MERLIN runs on the archive recordings only: on Yahoo-length series
  // its pan pruning swings 40x with the simulated kind, which would
  // make the workload's cost depend on the seed.
  bool merlin = false;
};

// Whether an archive recording joins the input set, and at what length.
// insect_wingbeat and sat_bus: long recordings where MERLIN's pan
// pruning works (MPX side of the size rule); sat_bus's freeze kind is
// left out because its flat run slows pruning by 5x. pedestrian: weekly counts
// where pruning fails, trimmed to keep a run affordable (STOMP side).
// Whole recordings, not stretches around the anomaly: on a 3,072-point
// stretch pruning fails now and then, and one such input can cost 15x
// its kind's median, which would make the run's cost depend on the seed.
std::size_t KeepLength(const std::string& name, std::size_t n) {
  const auto has = [&](const char* part) { return name.find(part) != std::string::npos; };
  if (has("insect_wingbeat") || (has("sat_bus") && !has("freeze"))) return n;
  if (has("pedestrian") && (has("spike") || has("dropout"))) {
    return std::min(n, kPedestrianPoints);
  }
  return 0;
}

std::vector<Input> BuildInputs(std::uint64_t seed) {
  std::vector<Input> inputs;
  {
    trace::Scope span("datasets.build", {"", "ucr_full_archive"});
    const tsad::UcrArchive archive = tsad::BuildFullArchive(seed);
    for (const tsad::LabeledSeries& s : archive.datasets) {
      const std::size_t keep = KeepLength(s.name(), s.length());
      if (keep == 0) continue;
      Input in{s.name(), s.values(), s.train_length(), true};
      in.values.resize(keep);
      inputs.push_back(std::move(in));
    }
  }
  {
    trace::Scope span("datasets.build", {"", "yahoo"});
    tsad::YahooConfig config;
    config.seed = seed;
    config.a1_count = config.a2_count = config.a3_count = config.a4_count =
        kYahooInputs / 4;
    const tsad::YahooArchive yahoo = tsad::GenerateYahooArchive(config);
    for (const tsad::BenchmarkDataset* d : yahoo.all()) {
      for (const tsad::LabeledSeries& s : d->series) {
        inputs.push_back({s.name(), s.values(), 0, false});
      }
    }
  }
  // A training prefix for the AB-join: the recording's own, else (or
  // when trimming cut into it) the first quarter.
  for (Input& in : inputs) {
    if (in.train == 0 || in.train + 4 * kM >= in.values.size()) in.train = in.values.size() / 4;
  }
  return inputs;
}

struct Profiles {
  tsad::MatrixProfile self, ab, left;
  std::vector<tsad::Discord> discords;
  std::vector<tsad::LengthDiscord> merlin;
};

// Per-input seconds of one pass.
struct PassTimes {
  std::vector<double> discord_s, merlin_s;
};

// One pass over every input; `keep` receives the profiles (for the gate).
PassTimes RunPass(const std::vector<Input>& inputs, std::vector<Profiles>* keep,
                  Outcome* outcome) {
  PassTimes times;
  std::uint64_t failed = 0, merlin_calls = 0;
  keep->assign(inputs.size(), {});
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Input& in = inputs[i];
    const std::int64_t n = static_cast<std::int64_t>(in.values.size());
    const tsad::Series train(in.values.begin(),
                             in.values.begin() + static_cast<std::ptrdiff_t>(in.train));
    const tsad::Series test(in.values.begin() + static_cast<std::ptrdiff_t>(in.train),
                            in.values.end());
    Profiles& p = (*keep)[i];
    const Clock::time_point start = Clock::now();
    {
      const bool large = in.values.size() - kM + 1 >= kSizeRule;
      trace::Scope span(large ? "substrates.selfjoin.large" : "substrates.selfjoin.small",
                        {"", in.name, n, static_cast<std::int64_t>(kM)});
      tsad::Result<tsad::MatrixProfile> r = tsad::ComputeMatrixProfile(in.values, kM);
      failed += r.ok() ? 0 : 1;
      if (r.ok()) p.self = std::move(*r);
    }
    {
      trace::Scope span("substrates.top_discords", {"", in.name, n, static_cast<std::int64_t>(kM)});
      p.discords = tsad::TopDiscords(p.self, 3);
    }
    {
      trace::Scope span("substrates.abjoin", {"", in.name, n, static_cast<std::int64_t>(kM)});
      tsad::Result<tsad::MatrixProfile> r = tsad::ComputeAbJoin(test, train, kM);
      failed += r.ok() ? 0 : 1;
      if (r.ok()) p.ab = std::move(*r);
    }
    {
      trace::Scope span("substrates.left", {"", in.name, n, static_cast<std::int64_t>(kM)});
      tsad::Result<tsad::MatrixProfile> r = tsad::ComputeLeftMatrixProfile(in.values, kM);
      failed += r.ok() ? 0 : 1;
      if (r.ok()) p.left = std::move(*r);
    }
    const Clock::time_point mid = Clock::now();
    if (in.merlin) {
      trace::Scope span("detectors.merlin_sweep", {"", in.name, n});
      tsad::Result<std::vector<tsad::LengthDiscord>> r =
          tsad::MerlinSweep(in.values, kMerlinMin, kMerlinMax);
      failed += r.ok() ? 0 : 1;
      ++merlin_calls;
      if (r.ok()) p.merlin = std::move(*r);
    }
    times.discord_s.push_back(std::chrono::duration<double>(mid - start).count());
    times.merlin_s.push_back(SecondsSince(mid));
  }
  outcome->Count(inputs.size() * 3 + merlin_calls, failed, "profile or MERLIN calls failed");
  return times;
}

// Brute-force z-normalized distance between the length-m subsequences
// of `a` at i and `b` at j; flat windows follow the SCAMP convention.
struct Window {
  double mean = 0.0, std = 0.0;
  bool flat = false;
};

Window Stats(const tsad::Series& x, std::size_t i, std::size_t m) {
  Window w;
  long double sum = 0.0L;
  for (std::size_t k = 0; k < m; ++k) sum += x[i + k];
  w.mean = static_cast<double>(sum / static_cast<long double>(m));
  long double sq = 0.0L;
  for (std::size_t k = 0; k < m; ++k) {
    const long double d = x[i + k] - w.mean;
    sq += d * d;
  }
  w.std = std::sqrt(static_cast<double>(sq / static_cast<long double>(m)));
  w.flat = w.std < 1e-7 * (1.0 + std::abs(w.mean));
  return w;
}

std::vector<Window> AllStats(const tsad::Series& x, std::size_t m) {
  std::vector<Window> w;
  for (std::size_t i = 0; i + m <= x.size(); ++i) w.push_back(Stats(x, i, m));
  return w;
}

double SquaredDistance(const tsad::Series& a, std::size_t i, const Window& wa,
                       const tsad::Series& b, std::size_t j, const Window& wb,
                       std::size_t m) {
  if (wa.flat && wb.flat) return 0.0;
  if (wa.flat || wb.flat) return 2.0 * static_cast<double>(m);
  double cov = 0.0;
  for (std::size_t k = 0; k < m; ++k) cov += (a[i + k] - wa.mean) * (b[j + k] - wb.mean);
  const double corr = cov / (static_cast<double>(m) * wa.std * wb.std);
  return std::max(0.0, 2.0 * static_cast<double>(m) * (1.0 - corr));
}

// Nearest-neighbour squared distance of a[i] among b[j] for j in
// [lo, hi) with |i - j| > exclusion when `self`.
double BruteNearest(const tsad::Series& a, std::size_t i, const std::vector<Window>& wa,
                    const tsad::Series& b, const std::vector<Window>& wb,
                    std::size_t lo, std::size_t hi, bool self, std::size_t exclusion,
                    std::size_t m) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t j = lo; j < hi; ++j) {
    if (self && (j > i ? j - i : i - j) <= exclusion) continue;
    best = std::min(best, SquaredDistance(a, i, wa[i], b, j, wb[j], m));
  }
  return best;
}

bool Close(double reported, double brute_sq, std::size_t m) {
  if (std::isinf(reported) || std::isinf(brute_sq)) {
    return std::isinf(reported) && std::isinf(brute_sq);
  }
  return std::abs(reported * reported - brute_sq) <=
         2.0 * static_cast<double>(m) * kCorrTolerance;
}

void CheckInput(const Input& in, const Profiles& p, tsad::Rng* rng, Outcome* outcome) {
  const tsad::Series& x = in.values;
  const std::size_t exclusion = kM / 2;
  const std::vector<Window> wx = AllStats(x, kM);
  const std::size_t count = wx.size();
  const tsad::Series train(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(in.train));
  const tsad::Series test(x.begin() + static_cast<std::ptrdiff_t>(in.train), x.end());
  const std::vector<Window> wtrain = AllStats(train, kM), wtest = AllStats(test, kM);
  if (!outcome->Gate(p.self.size() == count && p.left.size() == count &&
                         p.ab.size() == wtest.size(),
                     "profile sizes for " + in.name)) {
    return;
  }
  std::vector<std::size_t> samples;
  for (int k = 0; k < 4; ++k) {
    samples.push_back(static_cast<std::size_t>(rng->UniformInt(0, static_cast<int64_t>(count) - 1)));
  }
  for (const tsad::Discord& d : p.discords) samples.push_back(d.position);
  for (std::size_t i : samples) {
    outcome->Gate(Close(p.self.distances[i],
                        BruteNearest(x, i, wx, x, wx, 0, count, true, exclusion, kM), kM),
                  "self-join entry " + std::to_string(i) + " of " + in.name);
    const double left = i > exclusion
                            ? BruteNearest(x, i, wx, x, wx, 0, i - exclusion, true, exclusion, kM)
                            : std::numeric_limits<double>::infinity();
    outcome->Gate(Close(p.left.distances[i], left, kM),
                  "left-profile entry " + std::to_string(i) + " of " + in.name);
  }
  for (int k = 0; k < 4; ++k) {
    const std::size_t i = static_cast<std::size_t>(
        rng->UniformInt(0, static_cast<int64_t>(wtest.size()) - 1));
    outcome->Gate(Close(p.ab.distances[i],
                        BruteNearest(test, i, wtest, train, wtrain, 0, wtrain.size(), false, 0, kM),
                        kM),
                  "AB-join entry " + std::to_string(i) + " of " + in.name);
  }

  // MERLIN: every length's discord distance by brute force; at three
  // lengths, the discord is as far as the self-join profile's maximum.
  if (!in.merlin) return;
  outcome->Gate(p.merlin.size() == kMerlinMax - kMerlinMin + 1, "MERLIN lengths for " + in.name);
  for (const tsad::LengthDiscord& d : p.merlin) {
    const std::size_t m = d.length;
    const std::vector<Window> wm = AllStats(x, m);
    const double brute =
        BruteNearest(x, d.position, wm, x, wm, 0, wm.size(), true, m / 2, m);
    bool ok = Close(d.distance, brute, m);
    if (m == kMerlinMin || m == (kMerlinMin + kMerlinMax) / 2 || m == kMerlinMax) {
      tsad::Result<tsad::MatrixProfile> mp = tsad::ComputeMatrixProfile(x, m);
      double top = 0.0;
      if (mp.ok()) {
        for (double v : mp->distances) {
          if (std::isfinite(v)) top = std::max(top, v);
        }
      }
      ok = ok && mp.ok() &&
           d.distance * d.distance >= top * top - 2.0 * static_cast<double>(m) * kCorrTolerance;
    }
    outcome->Gate(ok, "MERLIN discord at m=" + std::to_string(m) + " of " + in.name);
  }
}

}  // namespace

Outcome RunDiscoveryWorkload(const Options& options) {
  Outcome outcome;
  constexpr int kSetups = 15;
  constexpr int kWarmups = 1;
  outcome.Setting("warmup_passes", std::to_string(kWarmups));
  outcome.Setting("setup_repeats", std::to_string(kSetups));
  trace::SetEnabled(options.trace);

  std::vector<Input> inputs;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point start = Clock::now();
    inputs = BuildInputs(options.seed);
    setups.push_back(SecondsSince(start));
  }
  trace::SetEnabled(false);
  outcome.Setting("inputs", std::to_string(inputs.size()));

  std::vector<Profiles> profiles;
  for (int i = 0; i < kWarmups; ++i) RunPass(inputs, &profiles, &outcome);

  // Per-input samples, one per pass. Each headline number sums the
  // inputs' medians, so a burst of load from elsewhere on the host that
  // slows a few calls of one pass moves no median.
  std::vector<std::vector<double>> discord(inputs.size()), merlin(inputs.size()),
      both(inputs.size());
  std::vector<double> passes, traced_passes;
  const auto pass = [&] {
    const PassTimes t = RunPass(inputs, &profiles, &outcome);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      discord[i].push_back(t.discord_s[i]);
      merlin[i].push_back(t.merlin_s[i]);
      both[i].push_back(t.discord_s[i] + t.merlin_s[i]);
    }
  };
  const auto sum_of_medians = [](const std::vector<std::vector<double>>& samples) {
    double sum = 0.0;
    for (const std::vector<double>& s : samples) sum += Median(s);
    return sum;
  };
  if (!options.trace) {
    passes = TimeRepeated(options.seconds, 3, 100, pass);
  } else {
    double total = 0.0;
    while (passes.size() < 2 || total < options.seconds) {
      const Clock::time_point a = Clock::now();
      pass();
      passes.push_back(SecondsSince(a));
      trace::SetEnabled(true);
      const Clock::time_point b = Clock::now();
      RunPass(inputs, &profiles, &outcome);
      traced_passes.push_back(SecondsSince(b));
      trace::SetEnabled(false);
      total += passes.back() + traced_passes.back();
    }
  }

  tsad::Rng rng(options.seed ^ 0xd15c0ULL);
  for (std::size_t i = 0; i < inputs.size(); ++i) CheckInput(inputs[i], profiles[i], &rng, &outcome);

  const double setup_s = Median(setups);
  const double discord_s = sum_of_medians(discord), merlin_s = sum_of_medians(merlin);
  outcome.Headline("discord_s", discord_s, "s",
                   "per-input medians of " + std::to_string(passes.size()) +
                       " passes, summed over " + std::to_string(inputs.size()) + " inputs");
  outcome.Headline("merlin_s", merlin_s, "s",
                   "MerlinSweep(x, 48, 96) summed over the archive recordings");
  outcome.Headline("setup_s", setup_s, "s", "median of " + std::to_string(kSetups) + " input builds");
  outcome.Headline("peak_rss_mb", PeakRssMb(), "MB");
  outcome.Setting("passes", std::to_string(passes.size()));
  outcome.EndToEnd("setup_s", setup_s, "s");
  outcome.EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  outcome.EndToEnd("work_s", sum_of_medians(both), "s");

  if (options.trace) {
    const std::vector<trace::Span> spans = trace::Collect();
    const double traced_passes_n = static_cast<double>(traced_passes.size());
    outcome.Layer("datasets.build_s.discovery", SpanSeconds(spans, "datasets.build") / kSetups, "s");
    const double small = SpanSeconds(spans, "substrates.selfjoin.small") / traced_passes_n;
    const double large = SpanSeconds(spans, "substrates.selfjoin.large") / traced_passes_n;
    outcome.Layer("substrates.selfjoin_s.small", small, "s");
    outcome.Layer("substrates.selfjoin_s.large", large, "s");
    double pairs = 0.0;
    for (const Input& in : inputs) {
      const double l = static_cast<double>(in.values.size() - kM + 1);
      pairs += l * (l - 1.0) / 2.0;
    }
    outcome.Layer("substrates.selfjoin_pairs_per_s", pairs / (small + large), "1/s");
    outcome.Layer("substrates.abjoin_s", SpanSeconds(spans, "substrates.abjoin") / traced_passes_n, "s");
    outcome.Layer("substrates.left_s", SpanSeconds(spans, "substrates.left") / traced_passes_n, "s");
    outcome.Layer("substrates.top_discords_s",
                  SpanSeconds(spans, "substrates.top_discords") / traced_passes_n, "s");
    outcome.Layer("detectors.merlin_sweep_s",
                  SpanSeconds(spans, "detectors.merlin_sweep") / traced_passes_n, "s");
    const double untraced = Median(passes), traced = Median(traced_passes);
    outcome.Layer("trace.overhead_s", traced - untraced, "s");
    outcome.Layer("trace.overhead_frac", (traced - untraced) / untraced, "fraction");
  }
  return outcome;
}

}  // namespace perfbench
