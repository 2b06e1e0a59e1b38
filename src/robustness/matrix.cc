#include "robustness/matrix.h"

#include <cmath>
#include <cstdio>

#include "common/parallel.h"
#include "common/stats.h"
#include "scoring/ucr_score.h"

namespace tsad {

namespace {

bool AllFinite(const std::vector<double>& x) {
  for (double v : x) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace

std::vector<RobustnessCase> DefaultFaultMatrix() {
  constexpr double kSeverities[] = {0.05, 0.1, 0.2};
  std::vector<RobustnessCase> cases;
  for (FaultType fault : AllFaultTypes()) {
    for (double severity : kSeverities) {
      cases.push_back({fault, severity});
    }
  }
  return cases;
}

std::vector<RobustnessCell> RunRobustnessMatrix(
    const LabeledSeries& series,
    const std::vector<const AnomalyDetector*>& detectors,
    const RobustnessConfig& config) {
  const std::vector<RobustnessCase> cases = DefaultFaultMatrix();
  const std::size_t num_cases = cases.size();

  // Phase 1: the clean baseline per detector, in parallel.
  struct CleanRun {
    Result<std::vector<double>> scores;
    std::size_t peak = kNoPrediction;
  };
  auto score_clean = [&](std::size_t di) -> CleanRun {
    CleanRun run{detectors[di]->Score(series), kNoPrediction};
    if (run.scores.ok()) {
      run.peak = PredictLocation(*run.scores, series.train_length());
    }
    return run;
  };
  std::vector<CleanRun> clean_runs;
  {
    Result<std::vector<CleanRun>> runs = ParallelMap<CleanRun>(
        detectors.size(),
        [&](std::size_t di) -> Result<CleanRun> { return score_clean(di); });
    if (runs.ok()) {
      clean_runs = std::move(*runs);
    } else {  // contained worker exception: recompute inline
      for (std::size_t di = 0; di < detectors.size(); ++di) {
        clean_runs.push_back(score_clean(di));
      }
    }
  }

  // Phase 2: every (detector, fault, severity) cell is independent —
  // fan the whole grid out. Cells land in detector-major, case-minor
  // order exactly as the serial loop produced them.
  auto make_cell = [&](std::size_t flat) -> RobustnessCell {
    const std::size_t di = flat / num_cases;
    const std::size_t ci = flat % num_cases;
    const AnomalyDetector* detector = detectors[di];
    const CleanRun& clean = clean_runs[di];
    const RobustnessCase& c = cases[ci];
    RobustnessCell cell;
    cell.detector = std::string(detector->name());
    cell.fault = c.fault;
    cell.severity = c.severity;
    // Seeded off the case index so every detector faces the same
    // fault realization — the columns stay comparable.
    FaultInjector injector(config.seed + 1 + ci);
    injector.Add({c.fault, c.severity});
    const LabeledSeries faulted = injector.Apply(series);

    Result<std::vector<double>> scores = detector->Score(faulted);
    if (!scores.ok()) {
      cell.status = scores.status();
      return cell;
    }
    cell.survived = scores->size() == faulted.length() && AllFinite(*scores);
    if (cell.survived) {
      const std::size_t peak =
          PredictLocation(*scores, faulted.train_length());
      if (clean.scores.ok() && clean.scores->size() == scores->size()) {
        cell.score_correlation = PearsonCorrelation(*clean.scores, *scores);
      }
      if (peak != kNoPrediction && clean.peak != kNoPrediction) {
        cell.peak_drift =
            peak > clean.peak ? peak - clean.peak : clean.peak - peak;
      }
      cell.peak_correct = !faulted.anomalies().empty() &&
                          UcrCorrect(faulted.anomalies().front(), peak);
      cell.discrimination = Discrimination(*scores);
    } else {
      cell.status = Status::Internal("non-finite or short score track");
    }
    return cell;
  };

  Result<std::vector<RobustnessCell>> cells = ParallelMap<RobustnessCell>(
      detectors.size() * num_cases,
      [&](std::size_t flat) -> Result<RobustnessCell> {
        return make_cell(flat);
      });
  if (cells.ok()) return std::move(*cells);
  std::vector<RobustnessCell> fallback;
  for (std::size_t flat = 0; flat < detectors.size() * num_cases; ++flat) {
    fallback.push_back(make_cell(flat));
  }
  return fallback;
}

std::string FormatRobustnessTable(const std::vector<RobustnessCell>& cells) {
  std::string out;
  char line[256];
  std::string current;
  for (const RobustnessCell& cell : cells) {
    if (cell.detector != current) {
      current = cell.detector;
      std::snprintf(line, sizeof(line),
                    "\n%-28s %8s  %5s  %6s  %6s  %5s  %6s\n",
                    current.c_str(), "fault", "sev", "corr", "drift", "peak",
                    "disc");
      out += line;
      out += std::string(78, '-') + "\n";
    }
    if (cell.survived) {
      std::snprintf(line, sizeof(line),
                    "%-28s %16s  %4.0f%%  %6.3f  %6zu  %5s  %6.2f\n", "",
                    std::string(FaultTypeName(cell.fault)).c_str(),
                    cell.severity * 100.0, cell.score_correlation,
                    cell.peak_drift, cell.peak_correct ? "hit" : "MISS",
                    cell.discrimination);
    } else {
      std::snprintf(line, sizeof(line), "%-28s %16s  %4.0f%%  %s\n", "",
                    std::string(FaultTypeName(cell.fault)).c_str(),
                    cell.severity * 100.0, cell.status.ToString().c_str());
    }
    out += line;
  }
  return out;
}

}  // namespace tsad
