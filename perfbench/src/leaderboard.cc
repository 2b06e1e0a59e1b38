// leaderboard workload: RunLeaderboard over the pinned 32-spec board
// (16 registry detectors plus their resilient: wrappers) x 6 simulator
// families x 7 metrics. The correctness gate replays every (detector,
// family, series) triple through the public detectors and scoring API
// and requires the same cells, bit for bit; the traced run records a
// span around each of those calls.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/parallel.h"
#include "core/leaderboard.h"
#include "detectors/detector.h"
#include "detectors/registry.h"
#include "scoring/affiliation.h"
#include "scoring/confusion.h"
#include "scoring/delay.h"
#include "scoring/nab.h"
#include "scoring/point_adjust.h"
#include "scoring/range_pr.h"
#include "scoring/ucr_score.h"

namespace perfbench {

namespace {

using tsad::LabeledSeries;
using tsad::LeaderboardFamily;
using tsad::LeaderboardMetric;

// The board as of this benchmark's definition, pinned so a registry
// change cannot silently change the workload.
const std::vector<std::string> kBaseSpecs = {
    "discord",     "semisup", "streaming",   "merlin",    "telemanom",
    "zscore",      "cusum",   "ewma",        "pagehinkley", "maxdiff",
    "constantrun", "lastpoint", "oneliner",  "sesd",      "sr",
    "floss"};

const LeaderboardFamily kFamilies[] = {
    LeaderboardFamily::kYahoo, LeaderboardFamily::kNab,
    LeaderboardFamily::kNasa,  LeaderboardFamily::kOmni,
    LeaderboardFamily::kPhysio, LeaderboardFamily::kGait};

const LeaderboardMetric kMetrics[] = {
    LeaderboardMetric::kPointF1,       LeaderboardMetric::kPointAdjustF1,
    LeaderboardMetric::kRangePrF1,     LeaderboardMetric::kNab,
    LeaderboardMetric::kUcrSlop,       LeaderboardMetric::kAffiliationF1,
    LeaderboardMetric::kDelayF1};

constexpr std::size_t kSeriesPerFamily = 4;
constexpr std::size_t kDelayTolerance = 64;

std::vector<std::string> PinnedSpecs() {
  std::vector<std::string> specs = kBaseSpecs;
  for (const std::string& base : kBaseSpecs) specs.push_back("resilient:" + base);
  return specs;
}

struct Inputs {
  std::vector<std::string> specs;
  std::vector<std::string> family_names;
  std::vector<std::vector<LabeledSeries>> families;
};

Inputs BuildInputs(std::uint64_t seed) {
  Inputs in;
  in.specs = PinnedSpecs();
  for (LeaderboardFamily f : kFamilies) {
    const std::string name(tsad::LeaderboardFamilyName(f));
    trace::Scope span("datasets.build", {"", name});
    in.family_names.push_back(name);
    in.families.push_back(tsad::BuildLeaderboardFamily(f, seed, kSeriesPerFamily));
  }
  return in;
}

// The board's seed for run seed `seed`: the first of seed, seed +
// kSeedStride, ... whose families all carry a training prefix of at
// least kMinTrain points. Shorter prefixes make semisup (which needs
// 2m = 256) fail on that series, and the workload is defined to have no
// failing operation.
constexpr std::size_t kMinTrain = 256;
constexpr std::uint64_t kSeedStride = 1000003;

std::uint64_t BoardSeed(std::uint64_t seed) {
  for (std::uint64_t candidate = seed;; candidate += kSeedStride) {
    bool ok = true;
    for (LeaderboardFamily f : kFamilies) {
      for (const LabeledSeries& s :
           tsad::BuildLeaderboardFamily(f, candidate, kSeriesPerFamily)) {
        ok = ok && s.train_length() >= kMinTrain;
      }
    }
    if (ok) return candidate;
  }
}

tsad::LeaderboardConfig BoardConfig(const Inputs& in, std::uint64_t seed) {
  tsad::LeaderboardConfig config;
  config.detectors = in.specs;
  config.families.assign(std::begin(kFamilies), std::end(kFamilies));
  config.metrics.assign(std::begin(kMetrics), std::end(kMetrics));
  config.seed = seed;
  config.max_series_per_family = kSeriesPerFamily;
  config.delay_tolerance = kDelayTolerance;
  return config;
}

struct TripleEval {
  bool ok = false;
  std::vector<double> values;
};

// One metric call inside its own span.
double Timed(const char* span_name, const std::function<double()>& fn) {
  trace::Scope span(span_name);
  return fn();
}

// Scores one (spec, series) triple the way the board defines a cell
// entry: NaN scores become -inf, the point predictions flag the top
// `positives` scores, and each metric reads the same predictions.
TripleEval ScoreTriple(const std::string& spec, const std::string& family,
                       const LabeledSeries& series) {
  TripleEval eval;
  const trace::Attrs attrs{spec, family, static_cast<std::int64_t>(series.length())};
  std::unique_ptr<tsad::AnomalyDetector> detector;
  {
    trace::Scope span("detectors.make", attrs);
    tsad::Result<std::unique_ptr<tsad::AnomalyDetector>> made =
        tsad::MakeDetector(spec);
    if (!made.ok()) return eval;
    detector = std::move(*made);
  }
  tsad::Result<std::vector<double>> scored = tsad::Status::OK();
  {
    trace::Scope span("detectors.score", attrs);
    scored = detector->Score(series);
  }
  if (!scored.ok()) return eval;
  std::vector<double> scores = std::move(*scored);
  for (double& s : scores) {
    if (std::isnan(s)) s = -std::numeric_limits<double>::infinity();
  }

  const std::size_t n = series.length();
  const std::vector<uint8_t> labels = series.BinaryLabels();
  const std::vector<tsad::AnomalyRegion>& anomalies = series.anomalies();
  std::size_t positives = 0;
  for (uint8_t l : labels) positives += l != 0 ? 1 : 0;
  std::vector<uint8_t> predictions(n, 0);
  if (positives > 0 && n > 0) {
    std::vector<double> sorted = scores;
    std::nth_element(sorted.begin(),
                     sorted.begin() + static_cast<std::ptrdiff_t>(positives - 1),
                     sorted.end(), std::greater<>());
    const double threshold = sorted[positives - 1];
    for (std::size_t i = 0; i < n; ++i) predictions[i] = scores[i] >= threshold;
  }
  const std::vector<tsad::AnomalyRegion> predicted =
      tsad::RegionsFromBinary(predictions);
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

  eval.values.push_back(Timed("scoring.point_f1", [&] {
    tsad::Result<tsad::BestF1> best = tsad::BestF1OverThresholds(labels, scores);
    return best.ok() ? best->f1 : kNan;
  }));
  eval.values.push_back(Timed("scoring.point_adjust_f1", [&] {
    tsad::Result<tsad::BestF1> best = tsad::BestPointAdjustedF1(labels, scores);
    return best.ok() ? best->f1 : kNan;
  }));
  eval.values.push_back(Timed("scoring.range_pr_f1", [&] {
    return tsad::ComputeRangePr(anomalies, predicted).f1;
  }));
  eval.values.push_back(Timed("scoring.nab", [&] {
    std::vector<std::size_t> detections;
    for (const tsad::AnomalyRegion& p : predicted) detections.push_back(p.begin);
    tsad::Result<tsad::NabScore> nab =
        tsad::ComputeNabScore(anomalies, detections, n);
    return nab.ok() ? nab->normalized / 100.0 : kNan;
  }));
  eval.values.push_back(Timed("scoring.ucr_slop", [&] {
    const std::size_t peak = tsad::PredictLocation(scores, series.train_length());
    if (peak == tsad::kNoPrediction) return 0.0;
    for (const tsad::AnomalyRegion& a : anomalies) {
      if (tsad::UcrCorrect(a, peak)) return 1.0;
    }
    return 0.0;
  }));
  eval.values.push_back(Timed("scoring.affiliation_f1", [&] {
    tsad::Result<tsad::AffiliationScore> aff =
        tsad::ComputeAffiliation(anomalies, predicted, n);
    return aff.ok() ? aff->f1 : kNan;
  }));
  eval.values.push_back(Timed("scoring.delay_f1", [&] {
    tsad::DelayConfig config;
    config.tolerance = kDelayTolerance;
    tsad::Result<tsad::DelayScore> delay =
        tsad::ComputeDelayScore(anomalies, predicted, n, config);
    return delay.ok() ? delay->f1 : kNan;
  }));
  eval.ok = true;
  return eval;
}

bool SameDouble(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0 ||
         (std::isnan(a) && std::isnan(b));
}

// Replays every triple over the pool (one task span per triple) and
// folds them into cells in board order, the way RunLeaderboard does.
std::vector<tsad::LeaderboardCell> ReplicaCells(const Inputs& in, Outcome* outcome) {
  struct Triple {
    std::size_t detector, family, series;
  };
  std::vector<Triple> triples;
  for (std::size_t d = 0; d < in.specs.size(); ++d) {
    for (std::size_t f = 0; f < in.families.size(); ++f) {
      for (std::size_t s = 0; s < in.families[f].size(); ++s) {
        triples.push_back({d, f, s});
      }
    }
  }
  std::vector<TripleEval> evals(triples.size());
  {
    trace::Scope fanout("common.parallel_for", {"", "leaderboard"});
    const std::uint64_t parent = fanout.id();
    const tsad::Status status =
        tsad::ParallelFor(0, triples.size(), [&](std::size_t i) {
          const Triple& t = triples[i];
          trace::Scope task("common.parallel.task", {}, parent);
          evals[i] = ScoreTriple(in.specs[t.detector], in.family_names[t.family],
                                 in.families[t.family][t.series]);
          return tsad::Status::OK();
        });
    outcome->Gate(status.ok(), "replica ParallelFor: " + status.ToString());
  }
  std::uint64_t failed = 0;
  for (const TripleEval& e : evals) failed += e.ok ? 0 : 1;
  outcome->Count(triples.size(), failed, "replica triples with detector errors");

  const std::size_t num_families = in.families.size();
  const std::size_t num_metrics = std::size(kMetrics);
  std::vector<tsad::LeaderboardCell> cells(in.specs.size() * num_families);
  std::vector<std::vector<double>> sums(cells.size(), std::vector<double>(num_metrics, 0.0));
  for (std::size_t i = 0; i < triples.size(); ++i) {
    const std::size_t c = triples[i].detector * num_families + triples[i].family;
    if (!evals[i].ok) {
      ++cells[c].detector_errors;
      continue;
    }
    ++cells[c].series_scored;
    for (std::size_t m = 0; m < num_metrics; ++m) sums[c][m] += evals[i].values[m];
  }
  for (std::size_t c = 0; c < cells.size(); ++c) {
    cells[c].detector = in.specs[c / num_families];
    cells[c].family = in.family_names[c % num_families];
    cells[c].values.assign(num_metrics, std::numeric_limits<double>::quiet_NaN());
    if (cells[c].series_scored == 0) continue;
    for (std::size_t m = 0; m < num_metrics; ++m) {
      cells[c].values[m] = sums[c][m] / static_cast<double>(cells[c].series_scored);
    }
  }
  return cells;
}

void CompareCells(const std::vector<tsad::LeaderboardCell>& replica,
                  const tsad::LeaderboardReport& report, Outcome* outcome) {
  if (!outcome->Gate(report.cells.size() == replica.size(), "cell count")) return;
  std::size_t mismatched = 0;
  for (std::size_t c = 0; c < replica.size(); ++c) {
    const tsad::LeaderboardCell& mine = replica[c];
    const tsad::LeaderboardCell& cell = report.cells[c];
    bool same = cell.detector == mine.detector && cell.family == mine.family &&
                cell.series_scored == mine.series_scored &&
                cell.detector_errors == mine.detector_errors &&
                cell.values.size() == mine.values.size();
    for (std::size_t m = 0; same && m < mine.values.size(); ++m) {
      same = SameDouble(mine.values[m], cell.values[m]);
    }
    if (!same) ++mismatched;
    outcome->Gate(same, "replica cell " + cell.detector + " x " + cell.family);
  }
  std::printf("leaderboard gate: %zu of %zu cells match the replica\n",
              replica.size() - mismatched, replica.size());
}

}  // namespace

Outcome RunLeaderboardWorkload(const Options& options) {
  Outcome outcome;
  constexpr int kSetups = 9;
  // The replica runs first and is the warm-up: the same detectors and
  // scoring functions over the same triples, on the same pool.
  outcome.Setting("warmup_passes", "1 (the replica)");
  outcome.Setting("setup_repeats", std::to_string(kSetups));
  const std::uint64_t board_seed = BoardSeed(options.seed);
  outcome.Setting("board_seed", std::to_string(board_seed));
  trace::SetEnabled(options.trace);

  // Set-up: the specs and the six families' labeled series, built
  // kSetups times (the median is reported).
  Inputs in;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point start = Clock::now();
    in = BuildInputs(board_seed);
    setups.push_back(SecondsSince(start));
  }
  const tsad::LeaderboardConfig config = BoardConfig(in, board_seed);

  std::vector<std::string> jsons;
  tsad::LeaderboardReport first;
  const auto run_board = [&] {
    trace::Scope span("core.run_leaderboard");
    tsad::Result<tsad::LeaderboardReport> report = tsad::RunLeaderboard(config);
    if (!outcome.Gate(report.ok(), "RunLeaderboard: " + report.status().ToString())) {
      return;
    }
    std::uint64_t errors = 0;
    for (const tsad::LeaderboardCell& cell : report->cells) errors += cell.detector_errors;
    std::uint64_t triples = 0;
    for (const auto& family : in.families) triples += family.size();
    outcome.Count(triples * in.specs.size(), errors,
                  "leaderboard triples with detector errors");
    if (jsons.empty()) first = *report;
    jsons.push_back(tsad::LeaderboardJson(*report));
  };

  const std::vector<tsad::LeaderboardCell> replica = ReplicaCells(in, &outcome);
  trace::SetEnabled(false);

  std::vector<double> passes, traced_passes;
  if (!options.trace) {
    passes = TimeRepeated(options.seconds, 3, 50, run_board);
  } else {
    // Alternate untraced and traced passes; the difference of their
    // medians is the tracing overhead.
    double total = 0.0;
    while (passes.empty() || total < options.seconds) {
      const Clock::time_point a = Clock::now();
      run_board();
      passes.push_back(SecondsSince(a));
      trace::SetEnabled(true);
      const Clock::time_point b = Clock::now();
      run_board();
      traced_passes.push_back(SecondsSince(b));
      trace::SetEnabled(false);
      total += passes.back() + traced_passes.back();
    }
  }
  for (const std::string& json : jsons) {
    outcome.Gate(json == jsons.front(), "RunLeaderboard JSON identical across passes");
  }

  trace::SetEnabled(options.trace);
  if (!jsons.empty()) {
    CompareCells(replica, first, &outcome);
    std::size_t total = 0;
    {
      trace::Scope span("core.leaderboard.rank_inversions");
      tsad::ComputeRankInversions(first.cells, first.detectors, first.families,
                                  first.metrics, &total);
    }
    outcome.Gate(total == first.total_discordant_pairs, "rank inversions recomputed");
    {
      trace::Scope span("core.leaderboard.json");
      outcome.Gate(tsad::LeaderboardJson(first) == jsons.front(),
                   "LeaderboardJson recomputed");
    }
  }
  trace::SetEnabled(false);

  const double setup_s = Median(setups);
  const double board_s = Median(passes);
  outcome.Headline("leaderboard_s", board_s, "s",
                   "median of " + std::to_string(passes.size()) + " RunLeaderboard passes");
  outcome.Headline("setup_s", setup_s, "s", "median of " + std::to_string(kSetups) + " input builds");
  outcome.Headline("peak_rss_mb", PeakRssMb(), "MB");
  outcome.Setting("passes", std::to_string(passes.size()));
  outcome.EndToEnd("setup_s", setup_s, "s");
  outcome.EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  outcome.EndToEnd("work_s", board_s, "s");

  if (options.trace) {
    const std::vector<trace::Span> spans = trace::Collect();
    const Efficiency eff = ParallelEfficiency(spans, "common.parallel_for",
                                              "common.parallel.task",
                                              options.threads);
    outcome.Layer("common.parallel.efficiency.leaderboard", eff.efficiency, "fraction");
    outcome.Layer("common.parallel.max_task_s.leaderboard", eff.max_task_s, "s");
    outcome.Layer("datasets.build_s.leaderboard",
                  SpanSeconds(spans, "datasets.build") / kSetups, "s");
    outcome.Layer("detectors.make_s", SpanSeconds(spans, "detectors.make"), "s");
    double resilient_overhead = 0.0;
    for (const std::string& spec : in.specs) {
      const double s = SpanSeconds(spans, "detectors.score", spec);
      outcome.Layer("detectors.score_s." + MetricSafe(spec), s, "s");
      resilient_overhead += spec.rfind("resilient:", 0) == 0 ? s : -s;
    }
    outcome.Layer("robustness.resilient_overhead_s", resilient_overhead, "s");
    for (LeaderboardMetric metric : kMetrics) {
      const std::string name(tsad::LeaderboardMetricName(metric));
      outcome.Layer("scoring." + name + "_s", SpanSeconds(spans, "scoring." + name), "s");
    }
    outcome.Layer("core.leaderboard.rank_inversions_s",
                  SpanSeconds(spans, "core.leaderboard.rank_inversions"), "s");
    outcome.Layer("core.leaderboard.json_s", SpanSeconds(spans, "core.leaderboard.json"), "s");
    const double traced = Median(traced_passes);
    outcome.Layer("trace.overhead_s", traced - board_s, "s");
    outcome.Layer("trace.overhead_frac", (traced - board_s) / board_s, "fraction");
  }
  return outcome;
}

}  // namespace perfbench
