#include "core/leaderboard.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>

#include "common/parallel.h"
#include "common/suggest.h"
#include "datasets/gait.h"
#include "datasets/nasa.h"
#include "datasets/numenta.h"
#include "datasets/omni.h"
#include "datasets/physio.h"
#include "datasets/yahoo.h"
#include "detectors/detector.h"
#include "detectors/registry.h"
#include "robustness/resilient.h"
#include "scoring/affiliation.h"
#include "scoring/confusion.h"
#include "scoring/delay.h"
#include "scoring/nab.h"
#include "scoring/point_adjust.h"
#include "scoring/range_pr.h"
#include "scoring/ucr_score.h"

namespace tsad {

namespace {

constexpr LeaderboardMetric kAllMetrics[kNumLeaderboardMetrics] = {
    LeaderboardMetric::kPointF1,       LeaderboardMetric::kPointAdjustF1,
    LeaderboardMetric::kRangePrF1,     LeaderboardMetric::kNab,
    LeaderboardMetric::kUcrSlop,       LeaderboardMetric::kAffiliationF1,
    LeaderboardMetric::kDelayF1,
};

constexpr LeaderboardFamily kAllFamilies[kNumLeaderboardFamilies] = {
    LeaderboardFamily::kYahoo, LeaderboardFamily::kNab,
    LeaderboardFamily::kNasa,  LeaderboardFamily::kOmni,
    LeaderboardFamily::kPhysio, LeaderboardFamily::kGait,
};

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// Generic comma-list parser over a fixed name table, with the shared
// "did you mean" rejection.
template <typename Enum, std::size_t N>
Result<std::vector<Enum>> ParseNameList(const std::string& list,
                                        const Enum (&all)[N],
                                        std::string_view (*name_of)(Enum),
                                        const char* what) {
  std::vector<Enum> out;
  if (list.empty() || list == "all") {
    out.assign(all, all + N);
    return out;
  }
  std::vector<std::string> known;
  for (Enum e : all) known.emplace_back(name_of(e));
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string token = list.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!token.empty()) {
      bool found = false;
      for (Enum e : all) {
        if (token == name_of(e)) {
          if (std::find(out.begin(), out.end(), e) == out.end()) {
            out.push_back(e);
          }
          found = true;
          break;
        }
      }
      if (!found) {
        std::string message = "unknown " + std::string(what) + " '" + token +
                              "'; known:";
        for (const std::string& k : known) message += " " + k;
        const std::string suggestion = SuggestClosest(token, known);
        if (!suggestion.empty()) {
          message += "; did you mean '" + suggestion + "'?";
        }
        return Status::InvalidArgument(message);
      }
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (out.empty()) {
    return Status::InvalidArgument(std::string("empty ") + what + " list");
  }
  return out;
}

// Assigns a training prefix to series that ship without one (quarter
// of the series, clipped to the first anomaly) so the semi-supervised
// detectors can compete on every family.
void EnsureTrainPrefix(LabeledSeries* series) {
  if (series->train_length() > 0 || series->length() == 0) return;
  std::size_t prefix = series->length() / 4;
  if (!series->anomalies().empty()) {
    prefix = std::min(prefix, series->anomalies().front().begin);
  }
  series->set_train_length(prefix);
}

// Cross-dimension mean of a multivariate machine: the univariate
// reduction that lets the (univariate) registry detectors run on the
// OMNI family while keeping its label track.
LabeledSeries ReduceToMean(const MultivariateSeries& machine) {
  const std::size_t n = machine.length();
  const std::size_t d = machine.num_dimensions();
  Series mean(n, 0.0);
  for (const Series& dim : machine.dimensions()) {
    for (std::size_t i = 0; i < n; ++i) mean[i] += dim[i];
  }
  if (d > 0) {
    for (std::size_t i = 0; i < n; ++i) mean[i] /= static_cast<double>(d);
  }
  return LabeledSeries(machine.name(), std::move(mean), machine.anomalies(),
                       machine.train_length());
}

// One detector's full metric row for one series, or ok=false when the
// detector refused the series.
struct SeriesEval {
  bool ok = false;
  std::vector<double> values;
};

// The metric row of one detector's score track (or its refusal) on
// `series`.
SeriesEval EvaluateScores(Result<std::vector<double>> scored,
                          const LabeledSeries& series,
                          const std::vector<LeaderboardMetric>& metrics,
                          std::size_t delay_tolerance) {
  SeriesEval eval;
  if (!scored.ok()) return eval;

  // Defensive: a NaN in a score track would poison the threshold sort.
  std::vector<double> scores = std::move(*scored);
  for (double& s : scores) {
    if (std::isnan(s)) s = -std::numeric_limits<double>::infinity();
  }

  const std::size_t n = series.length();
  const std::vector<uint8_t> labels = series.BinaryLabels();
  const std::vector<AnomalyRegion>& anomalies = series.anomalies();

  // Thresholded protocols share one density-matched threshold: admit
  // as many points as the ground truth labels anomalous (the "oracle
  // contamination" rule — the same omniscient favor for every metric,
  // so differences between columns come from the protocols, not the
  // thresholding).
  std::size_t positives = 0;
  for (uint8_t l : labels) positives += l != 0 ? 1 : 0;
  std::vector<uint8_t> predictions(n, 0);
  if (positives > 0 && n > 0) {
    std::vector<double> sorted = scores;
    std::nth_element(sorted.begin(),
                     sorted.begin() + static_cast<std::ptrdiff_t>(positives - 1),
                     sorted.end(), std::greater<>());
    const double threshold = sorted[positives - 1];
    for (std::size_t i = 0; i < n; ++i) {
      predictions[i] = scores[i] >= threshold ? 1 : 0;
    }
  }
  const std::vector<AnomalyRegion> predicted = RegionsFromBinary(predictions);

  eval.values.reserve(metrics.size());
  for (LeaderboardMetric metric : metrics) {
    double value = kNan;
    switch (metric) {
      case LeaderboardMetric::kPointF1: {
        Result<BestF1> best = BestF1OverThresholds(labels, scores);
        if (best.ok()) value = best->f1;
        break;
      }
      case LeaderboardMetric::kPointAdjustF1: {
        Result<BestF1> best = BestPointAdjustedF1(labels, scores);
        if (best.ok()) value = best->f1;
        break;
      }
      case LeaderboardMetric::kRangePrF1:
        value = ComputeRangePr(anomalies, predicted).f1;
        break;
      case LeaderboardMetric::kNab: {
        std::vector<std::size_t> detections;
        for (const AnomalyRegion& p : predicted) detections.push_back(p.begin);
        Result<NabScore> nab = ComputeNabScore(anomalies, detections, n);
        if (nab.ok()) value = nab->normalized / 100.0;
        break;
      }
      case LeaderboardMetric::kUcrSlop: {
        const std::size_t peak = PredictLocation(scores, series.train_length());
        value = 0.0;
        if (peak != kNoPrediction) {
          for (const AnomalyRegion& a : anomalies) {
            if (UcrCorrect(a, peak)) {
              value = 1.0;
              break;
            }
          }
        }
        break;
      }
      case LeaderboardMetric::kAffiliationF1: {
        Result<AffiliationScore> aff = ComputeAffiliation(anomalies, predicted, n);
        if (aff.ok()) value = aff->f1;
        break;
      }
      case LeaderboardMetric::kDelayF1: {
        DelayConfig config;
        config.tolerance = delay_tolerance;
        Result<DelayScore> delay = ComputeDelayScore(anomalies, predicted, n, config);
        if (delay.ok()) value = delay->f1;
        break;
      }
    }
    eval.values.push_back(value);
  }
  eval.ok = true;
  return eval;
}

// True when both results are score tracks with the same bytes.
bool SameScoreBytes(const Result<std::vector<double>>& a,
                    const Result<std::vector<double>>& b) {
  return a.ok() && b.ok() && a->size() == b->size() &&
         (a->empty() ||
          std::memcmp(a->data(), b->data(), a->size() * sizeof(double)) == 0);
}

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

std::string_view LeaderboardMetricName(LeaderboardMetric metric) {
  switch (metric) {
    case LeaderboardMetric::kPointF1:
      return "point_f1";
    case LeaderboardMetric::kPointAdjustF1:
      return "point_adjust_f1";
    case LeaderboardMetric::kRangePrF1:
      return "range_pr_f1";
    case LeaderboardMetric::kNab:
      return "nab";
    case LeaderboardMetric::kUcrSlop:
      return "ucr_slop";
    case LeaderboardMetric::kAffiliationF1:
      return "affiliation_f1";
    case LeaderboardMetric::kDelayF1:
      return "delay_f1";
  }
  return "?";
}

Result<std::vector<LeaderboardMetric>> ParseLeaderboardMetrics(
    const std::string& list) {
  return ParseNameList(list, kAllMetrics, &LeaderboardMetricName, "metric");
}

std::string_view LeaderboardFamilyName(LeaderboardFamily family) {
  switch (family) {
    case LeaderboardFamily::kYahoo:
      return "yahoo";
    case LeaderboardFamily::kNab:
      return "nab";
    case LeaderboardFamily::kNasa:
      return "nasa";
    case LeaderboardFamily::kOmni:
      return "omni";
    case LeaderboardFamily::kPhysio:
      return "physio";
    case LeaderboardFamily::kGait:
      return "gait";
  }
  return "?";
}

Result<std::vector<LeaderboardFamily>> ParseLeaderboardFamilies(
    const std::string& list) {
  return ParseNameList(list, kAllFamilies, &LeaderboardFamilyName, "family");
}

std::vector<std::string> DefaultLeaderboardDetectors() {
  std::vector<std::string> specs = RegisteredDetectorNames();
  const std::size_t base = specs.size();
  specs.reserve(2 * base);
  for (std::size_t i = 0; i < base; ++i) {
    specs.push_back("resilient:" + specs[i]);
  }
  return specs;
}

std::vector<LabeledSeries> BuildLeaderboardFamily(LeaderboardFamily family,
                                                  uint64_t seed,
                                                  std::size_t max_series) {
  std::vector<LabeledSeries> out;
  const std::size_t cap =
      max_series == 0 ? std::numeric_limits<std::size_t>::max() : max_series;
  switch (family) {
    case LeaderboardFamily::kYahoo: {
      YahooConfig config;
      config.seed = seed;
      if (max_series > 0) {
        // Generating only what the cap can use keeps small boards
        // cheap; stratification below still sees all four benchmarks.
        const std::size_t per = (max_series + 3) / 4;
        config.a1_count = std::min(config.a1_count, per);
        config.a2_count = std::min(config.a2_count, per);
        config.a3_count = std::min(config.a3_count, per);
        config.a4_count = std::min(config.a4_count, per);
      }
      const YahooArchive archive = GenerateYahooArchive(config);
      // Round-robin across A1..A4 so a small cap still spans the
      // benchmarks' distinct anomaly morphologies.
      const std::vector<const BenchmarkDataset*> sets = archive.all();
      for (std::size_t i = 0; out.size() < cap; ++i) {
        bool any = false;
        for (const BenchmarkDataset* set : sets) {
          if (i < set->series.size() && out.size() < cap) {
            out.push_back(set->series[i]);
            any = true;
          }
        }
        if (!any) break;
      }
      break;
    }
    case LeaderboardFamily::kNab: {
      NumentaConfig config;
      config.seed = seed;
      BenchmarkDataset dataset = GenerateNumentaDataset(config);
      for (LabeledSeries& s : dataset.series) {
        if (out.size() >= cap) break;
        out.push_back(std::move(s));
      }
      break;
    }
    case LeaderboardFamily::kNasa: {
      NasaConfig config;
      config.seed = seed;
      NasaArchive archive = GenerateNasaArchive(config);
      for (LabeledSeries& s : archive.channels.series) {
        if (out.size() >= cap) break;
        out.push_back(std::move(s));
      }
      break;
    }
    case LeaderboardFamily::kOmni: {
      OmniConfig config;
      config.seed = seed;
      if (max_series > 0) {
        config.num_machines = std::min(config.num_machines, max_series);
      }
      const OmniArchive archive = GenerateOmniArchive(config);
      for (const MultivariateSeries& machine : archive.machines) {
        if (out.size() >= cap) break;
        out.push_back(ReduceToMean(machine));
      }
      break;
    }
    case LeaderboardFamily::kPhysio: {
      PhysioConfig config;
      config.seed = seed;
      config.duration_sec = 30.0;  // 6000 points keeps the board tractable
      if (out.size() < cap) out.push_back(GenerateEcgWithPvc(config));
      if (out.size() < cap) {
        EcgPlethPair pair = GenerateBidmcPair(config, /*train_length=*/1500);
        out.push_back(std::move(pair.pleth));
        if (out.size() < cap) out.push_back(std::move(pair.ecg));
      }
      break;
    }
    case LeaderboardFamily::kGait: {
      const std::size_t count = std::min<std::size_t>(cap, 3);
      for (std::size_t i = 0; i < count; ++i) {
        GaitConfig config;
        config.seed = seed + 7 * i;
        config.num_cycles = 36;  // ~8.3k points
        config.train_cycles = 18;
        out.push_back(GenerateGaitData(config).series);
      }
      break;
    }
  }
  for (LabeledSeries& s : out) EnsureTrainPrefix(&s);
  return out;
}

Result<LeaderboardReport> RunLeaderboard(const LeaderboardConfig& config) {
  LeaderboardReport report;
  report.seed = config.seed;
  report.delay_tolerance = config.delay_tolerance;
  report.metrics = config.metrics;
  if (report.metrics.empty()) {
    report.metrics.assign(kAllMetrics, kAllMetrics + kNumLeaderboardMetrics);
  }
  std::vector<LeaderboardFamily> families = config.families;
  if (families.empty()) {
    families.assign(kAllFamilies, kAllFamilies + kNumLeaderboardFamilies);
  }
  for (LeaderboardFamily f : families) {
    report.families.emplace_back(LeaderboardFamilyName(f));
  }
  report.detectors = config.detectors.empty() ? DefaultLeaderboardDetectors()
                                              : config.detectors;

  // Fail fast on a bad spec (with the registry's "did you mean"),
  // before any series is generated or scored. Score() keeps no state
  // between calls, so every job shares these instances.
  std::vector<std::unique_ptr<AnomalyDetector>> instances;
  for (const std::string& spec : report.detectors) {
    TSAD_ASSIGN_OR_RETURN(std::unique_ptr<AnomalyDetector> detector,
                          MakeDetector(spec));
    instances.push_back(std::move(detector));
  }

  std::vector<std::vector<LabeledSeries>> family_series;
  family_series.reserve(families.size());
  for (LeaderboardFamily f : families) {
    family_series.push_back(
        BuildLeaderboardFamily(f, config.seed, config.max_series_per_family));
  }

  // A resilient:X row rides on the row of X when X is an unprefixed
  // spec on the board: one job scores X on a series and hands that
  // result to each wrapper, which reuses it wherever its primary stage
  // would make the same call (ResilientDetector::ScoreReusing). Every
  // other row hosts its own jobs.
  const std::size_t num_detectors = report.detectors.size();
  std::vector<std::vector<std::size_t>> riders(num_detectors);
  std::vector<std::size_t> hosts;
  for (std::size_t d = 0; d < num_detectors; ++d) {
    const std::optional<std::string> inner =
        ResilientInnerSpec(report.detectors[d]);
    const auto host =
        inner ? std::find(report.detectors.begin(), report.detectors.end(),
                          *inner)
              : report.detectors.end();
    if (host != report.detectors.end() && !ResilientInnerSpec(*host)) {
      riders[host - report.detectors.begin()].push_back(d);
    } else {
      hosts.push_back(d);
    }
  }

  // evals holds the (detector, family, series) triples detector-major;
  // the sweep is one ParallelFor over (host, family, series) jobs, each
  // writing its host's slot and its riders' slots.
  std::vector<std::size_t> series_offset(families.size() + 1, 0);
  for (std::size_t f = 0; f < families.size(); ++f) {
    series_offset[f + 1] = series_offset[f] + family_series[f].size();
  }
  const std::size_t num_series = series_offset.back();
  struct Job {
    std::size_t host, family, series;
  };
  std::vector<Job> jobs;
  for (std::size_t host : hosts) {
    for (std::size_t f = 0; f < families.size(); ++f) {
      for (std::size_t s = 0; s < family_series[f].size(); ++s) {
        jobs.push_back({host, f, s});
      }
    }
  }
  std::vector<SeriesEval> evals(num_detectors * num_series);
  TSAD_RETURN_IF_ERROR(ParallelFor(0, jobs.size(), [&](std::size_t j) {
    const Job& job = jobs[j];
    const LabeledSeries& series = family_series[job.family][job.series];
    const std::size_t slot = series_offset[job.family] + job.series;
    const Result<std::vector<double>> scored =
        instances[job.host]->Score(series);
    const SeriesEval& host_eval = evals[job.host * num_series + slot] =
        EvaluateScores(scored, series, report.metrics, config.delay_tolerance);
    for (std::size_t rider : riders[job.host]) {
      Result<std::vector<double>> wrapped =
          dynamic_cast<const ResilientDetector&>(*instances[rider])
              .ScoreReusing(series.values(), series.train_length(), scored);
      // A metric row depends only on the score bytes, the series and the
      // config, so a track identical to the host's shares its row.
      evals[rider * num_series + slot] =
          SameScoreBytes(wrapped, scored)
              ? host_eval
              : EvaluateScores(std::move(wrapped), series, report.metrics,
                               config.delay_tolerance);
    }
    return Status::OK();
  }));

  // Aggregate into (detector, family) cells in slot order — index-
  // deterministic, so the report is identical at any thread count.
  const std::size_t num_families = families.size();
  report.cells.resize(num_detectors * num_families);
  std::vector<std::vector<double>> sums(report.cells.size());
  for (std::size_t c = 0; c < report.cells.size(); ++c) {
    LeaderboardCell& cell = report.cells[c];
    cell.detector = report.detectors[c / num_families];
    cell.family = report.families[c % num_families];
    sums[c].assign(report.metrics.size(), 0.0);
  }
  for (std::size_t d = 0; d < num_detectors; ++d) {
    for (std::size_t f = 0; f < num_families; ++f) {
      const std::size_t c = d * num_families + f;
      for (std::size_t i = series_offset[f]; i < series_offset[f + 1]; ++i) {
        const SeriesEval& eval = evals[d * num_series + i];
        if (!eval.ok) {
          ++report.cells[c].detector_errors;
          continue;
        }
        ++report.cells[c].series_scored;
        for (std::size_t m = 0; m < report.metrics.size(); ++m) {
          sums[c][m] += eval.values[m];
        }
      }
    }
  }
  for (std::size_t c = 0; c < report.cells.size(); ++c) {
    LeaderboardCell& cell = report.cells[c];
    cell.values.assign(report.metrics.size(), kNan);
    if (cell.series_scored > 0) {
      for (std::size_t m = 0; m < report.metrics.size(); ++m) {
        cell.values[m] = sums[c][m] / static_cast<double>(cell.series_scored);
      }
    }
  }

  report.inversions =
      ComputeRankInversions(report.cells, report.detectors, report.families,
                            report.metrics, &report.total_discordant_pairs);
  return report;
}

std::vector<RankInversionStat> ComputeRankInversions(
    const std::vector<LeaderboardCell>& cells,
    const std::vector<std::string>& detectors,
    const std::vector<std::string>& families,
    const std::vector<LeaderboardMetric>& metrics, std::size_t* total) {
  std::vector<RankInversionStat> stats;
  if (total != nullptr) *total = 0;
  std::size_t pa_index = metrics.size();
  for (std::size_t m = 0; m < metrics.size(); ++m) {
    if (metrics[m] == LeaderboardMetric::kPointAdjustF1) pa_index = m;
  }
  if (pa_index == metrics.size()) return stats;

  for (std::size_t f = 0; f < families.size(); ++f) {
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      if (m == pa_index) continue;
      RankInversionStat stat;
      stat.family = families[f];
      stat.metric = std::string(LeaderboardMetricName(metrics[m]));
      double best_margin = 0.0;
      for (std::size_t a = 0; a < detectors.size(); ++a) {
        for (std::size_t b = a + 1; b < detectors.size(); ++b) {
          const LeaderboardCell& ca = cells[a * families.size() + f];
          const LeaderboardCell& cb = cells[b * families.size() + f];
          const double pa_a = ca.values[pa_index], pa_b = cb.values[pa_index];
          const double m_a = ca.values[m], m_b = cb.values[m];
          if (std::isnan(pa_a) || std::isnan(pa_b) || std::isnan(m_a) ||
              std::isnan(m_b)) {
            continue;
          }
          const double pa_gap = pa_a - pa_b;
          const double metric_gap = m_a - m_b;
          if (pa_gap * metric_gap >= 0.0 || pa_gap == 0.0) continue;
          ++stat.discordant_pairs;
          // The "flattered" detector leads on point-adjust but trails
          // on the fair metric; keep the widest example.
          const std::size_t flattered = pa_gap > 0.0 ? a : b;
          const std::size_t robbed = pa_gap > 0.0 ? b : a;
          const double margin = std::abs(pa_gap) * std::abs(metric_gap);
          if (margin > best_margin) {
            best_margin = margin;
            stat.flattered = detectors[flattered];
            stat.robbed = detectors[robbed];
            const LeaderboardCell& cf = cells[flattered * families.size() + f];
            const LeaderboardCell& cr = cells[robbed * families.size() + f];
            stat.flattered_point_adjust = cf.values[pa_index];
            stat.flattered_value = cf.values[m];
            stat.robbed_point_adjust = cr.values[pa_index];
            stat.robbed_value = cr.values[m];
          }
        }
      }
      if (stat.discordant_pairs > 0) {
        if (total != nullptr) *total += stat.discordant_pairs;
        stats.push_back(std::move(stat));
      }
    }
  }
  return stats;
}

std::string LeaderboardJson(const LeaderboardReport& report) {
  std::string out = "{\n  \"leaderboard\": {\n";
  out += "    \"seed\": " + std::to_string(report.seed) + ",\n";
  out += "    \"delay_tolerance\": " + std::to_string(report.delay_tolerance) +
         ",\n";
  const auto append_name_array = [&out](const char* key, const auto& names,
                                        const auto& to_name) {
    out += std::string("    \"") + key + "\": [";
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i > 0) out += ", ";
      AppendJsonString(&out, to_name(names[i]));
    }
    out += "],\n";
  };
  append_name_array("detectors", report.detectors,
                    [](const std::string& s) -> std::string_view { return s; });
  append_name_array("families", report.families,
                    [](const std::string& s) -> std::string_view { return s; });
  append_name_array("metrics", report.metrics, [](LeaderboardMetric m) {
    return LeaderboardMetricName(m);
  });

  out += "    \"cells\": [\n";
  for (std::size_t c = 0; c < report.cells.size(); ++c) {
    const LeaderboardCell& cell = report.cells[c];
    out += "      {\"detector\": ";
    AppendJsonString(&out, cell.detector);
    out += ", \"family\": ";
    AppendJsonString(&out, cell.family);
    out += ", \"series_scored\": " + std::to_string(cell.series_scored);
    out += ", \"detector_errors\": " + std::to_string(cell.detector_errors);
    out += ", \"values\": {";
    for (std::size_t m = 0; m < report.metrics.size(); ++m) {
      if (m > 0) out += ", ";
      AppendJsonString(&out, LeaderboardMetricName(report.metrics[m]));
      out += ": ";
      out += std::isnan(cell.values[m]) ? "null" : FormatDouble(cell.values[m]);
    }
    out += "}}";
    out += c + 1 < report.cells.size() ? ",\n" : "\n";
  }
  out += "    ],\n";

  out += "    \"rank_inversions\": {\n";
  out += "      \"total_discordant_pairs\": " +
         std::to_string(report.total_discordant_pairs) + ",\n";
  out += "      \"stats\": [\n";
  for (std::size_t i = 0; i < report.inversions.size(); ++i) {
    const RankInversionStat& stat = report.inversions[i];
    out += "        {\"family\": ";
    AppendJsonString(&out, stat.family);
    out += ", \"metric\": ";
    AppendJsonString(&out, stat.metric);
    out += ", \"discordant_pairs\": " + std::to_string(stat.discordant_pairs);
    out += ", \"flattered\": ";
    AppendJsonString(&out, stat.flattered);
    out += ", \"flattered_point_adjust_f1\": " +
           FormatDouble(stat.flattered_point_adjust);
    out += ", \"flattered_value\": " + FormatDouble(stat.flattered_value);
    out += ", \"robbed\": ";
    AppendJsonString(&out, stat.robbed);
    out += ", \"robbed_point_adjust_f1\": " +
           FormatDouble(stat.robbed_point_adjust);
    out += ", \"robbed_value\": " + FormatDouble(stat.robbed_value);
    out += "}";
    out += i + 1 < report.inversions.size() ? ",\n" : "\n";
  }
  out += "      ]\n    }\n  }\n}\n";
  return out;
}

std::string FormatLeaderboardTable(const LeaderboardReport& report) {
  std::string out;
  char buf[256];
  std::size_t pa_index = 0;  // sort column: point-adjust when present
  for (std::size_t m = 0; m < report.metrics.size(); ++m) {
    if (report.metrics[m] == LeaderboardMetric::kPointAdjustF1) pa_index = m;
  }

  for (std::size_t f = 0; f < report.families.size(); ++f) {
    std::snprintf(buf, sizeof(buf), "\n== family: %s ==\n",
                  report.families[f].c_str());
    out += buf;
    std::snprintf(buf, sizeof(buf), "%-28s", "detector");
    out += buf;
    for (LeaderboardMetric m : report.metrics) {
      std::snprintf(buf, sizeof(buf), " %15s",
                    std::string(LeaderboardMetricName(m)).c_str());
      out += buf;
    }
    out += "\n";

    // Detectors in the flattering order: point-adjust F1 descending
    // (NaN cells sink; ties keep registration order).
    std::vector<std::size_t> order(report.detectors.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       const double va =
                           report.cells[a * report.families.size() + f]
                               .values[pa_index];
                       const double vb =
                           report.cells[b * report.families.size() + f]
                               .values[pa_index];
                       if (std::isnan(vb)) return !std::isnan(va);
                       if (std::isnan(va)) return false;
                       return va > vb;
                     });
    for (std::size_t d : order) {
      const LeaderboardCell& cell = report.cells[d * report.families.size() + f];
      std::snprintf(buf, sizeof(buf), "%-28s", cell.detector.c_str());
      out += buf;
      for (std::size_t m = 0; m < report.metrics.size(); ++m) {
        if (std::isnan(cell.values[m])) {
          std::snprintf(buf, sizeof(buf), " %15s", "--");
        } else {
          std::snprintf(buf, sizeof(buf), " %15.3f", cell.values[m]);
        }
        out += buf;
      }
      if (cell.detector_errors > 0) {
        std::snprintf(buf, sizeof(buf), "  (%zu series errored)",
                      cell.detector_errors);
        out += buf;
      }
      out += "\n";
    }
  }

  std::snprintf(buf, sizeof(buf),
                "\nrank inversions vs point_adjust_f1: %zu discordant "
                "pair(s) across %zu (family, metric) cell(s)\n",
                report.total_discordant_pairs, report.inversions.size());
  out += buf;
  for (const RankInversionStat& stat : report.inversions) {
    std::snprintf(buf, sizeof(buf),
                  "  [%s/%s] %zu pair(s); point-adjust flatters %s "
                  "(pa %.3f, %s %.3f) over %s (pa %.3f, %s %.3f)\n",
                  stat.family.c_str(), stat.metric.c_str(),
                  stat.discordant_pairs, stat.flattered.c_str(),
                  stat.flattered_point_adjust, stat.metric.c_str(),
                  stat.flattered_value, stat.robbed.c_str(),
                  stat.robbed_point_adjust, stat.metric.c_str(),
                  stat.robbed_value);
    out += buf;
  }
  return out;
}

}  // namespace tsad
