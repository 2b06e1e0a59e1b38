// tsad — command-line interface to the library.
//
//   tsad generate <yahoo|taxi|nasa|archive> [--seed N] [--out DIR]
//       Write the simulated archives / the multi-domain UCR archive as
//       CSV files for inspection and external tooling.
//   tsad audit <file.csv...>
//       Run the four-flaw benchmark audit (§2) on labeled series.
//   tsad triviality <file.csv...>
//       Definition-1 check: report the solving one-liner, if any.
//   tsad detect <file.csv> [--detector SPEC]
//       Score a series and report the predicted anomaly location
//       (default detector: discord:m=128).
//   tsad panprofile <file.csv> [--min-length N] [--max-length N] [--step S]
//       MERLIN-style sweep: the top discord at every subsequence length
//       of [min, max] (default 48..96), plus the length whose
//       normalized discord distance peaks. --step > 1 sweeps a strided
//       length grid, one single-length MERLIN sweep per grid length, so
//       each grid length answers as the dense sweep does.
//   tsad robustness [file.csv] [--detectors SPEC,SPEC,...] [--seed N]
//       Run the fault x severity robustness matrix (NaN / -9999 missing
//       markers, dropouts, stuck-at, spikes, clipping, quantization,
//       noise) and print each detector's degradation table. Without a
//       file a synthetic UCR-style series is used. Detector specs may
//       use the resilient: prefix (default: three hardened detectors).
//   tsad table1 [--seed N]
//       Reproduce Table 1 on the simulated Yahoo archive.
//   tsad serve --replay <file.csv> [--streams N] [--detector SPEC]
//        [--batch B] [--queue C] [--policy block|shed] [--deadline-ms D]
//        [--priority critical|high|normal|batch] [--mem-budget BYTES]
//        [--recover RETRIES] [--no-verify]
//       Fan the series out to N identical streams, push it through the
//       sharded online serving engine in micro-batches, and verify the
//       engine output is byte-identical to the batch detector — also
//       under the survival ladder: --mem-budget cold-evicts idle
//       detectors to an in-memory snapshot store (thawed transparently,
//       still byte-identical), --recover quarantines failing streams
//       and replays them from the last good checkpoint, --priority sets
//       every replay stream's admission/eviction class. Exit 0 on
//       verified success, 2 on a mismatch.
//   tsad leaderboard [--detectors SPEC,...] [--families LIST]
//        [--metrics LIST] [--max-series N] [--delay-k K] [--seed N]
//        [--out FILE.json] [--smoke]
//       Run every registry detector (or the given specs) across the
//       simulator families under all seven scoring protocols in one
//       parallel sweep, print per-family tables sorted by the
//       flattering point-adjust F1, and report rank inversions — pairs
//       of detectors the popular protocol orders opposite to the
//       event-aware metrics. --out writes the machine-readable JSON
//       report; --smoke shrinks the board to a CI-sized 2x2.
//   tsad list-detectors
//
// Every command accepts --threads N to size the parallel execution
// pool (default: TSAD_THREADS env var, then hardware concurrency;
// 1 = serial; at most kMaxParallelThreads = 1024). Reports are
// bit-identical at any thread count. Every numeric flag takes decimal
// digits only; a sign, trailing junk or a value too large for its
// setting exits 1.
//
// CSV format: the library's own (see common/csv.h).

#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "tsad.h"
#include "common/cpu_features.h"
#include "common/parallel.h"
#include "detectors/registry.h"

namespace {

using namespace tsad;

struct Args {
  std::vector<std::string> positional;
  uint64_t seed = 42;
  std::string out = ".";
  std::string detector = "discord:m=128";
  std::string detectors;  // robustness: comma-separated spec list
  std::string report;     // audit: optional markdown report path
  std::size_t threads = 0;  // parallel pool size; 0 = env/hardware
  std::string mp_isa;       // forced SIMD tier: auto|scalar|sse2|avx2|avx512
  // panprofile:
  std::size_t min_length = 48;  // smallest swept subsequence length
  std::size_t max_length = 96;  // largest swept subsequence length
  std::size_t step = 1;         // length grid stride
  // serve:
  std::string replay;       // CSV to replay through the engine
  std::size_t streams = 4;  // stream fan-out
  std::size_t batch = 256;  // points per stream between pumps
  std::size_t queue = 0;    // per-shard queue capacity; 0 = default
  std::string policy = "block";  // overflow policy: block|shed
  std::size_t deadline_ms = 0;   // per-stream drain deadline; 0 = off
  bool no_verify = false;
  std::string priority = "normal";  // stream priority class
  std::size_t mem_budget = 0;       // detector memory budget, bytes; 0 = off
  int recover = 0;                  // quarantine recovery retries; 0 = off
  // leaderboard:
  bool out_set = false;          // --out given explicitly (JSON only then)
  std::string metrics;           // comma-separated metric list; "" = all
  std::string families;          // comma-separated family list; "" = all
  std::size_t max_series = 4;    // series per family cap; 0 = no cap
  std::size_t delay_k = 64;      // delay metric tolerance, points
  bool smoke = false;            // tiny 2-detector x 2-family board
};

// The engine keeps the drain deadline in nanoseconds.
constexpr std::size_t kMaxDeadlineMs =
    std::chrono::nanoseconds::max().count() / 1'000'000;

// Reads a numeric flag's value: decimal digits only (no sign, space or
// trailing junk) and no larger than `max`, the most the field it lands
// in can hold — so `--streams -1` is an error, not 2^64 - 1 streams.
template <typename T>
Status ParseFlagValue(const std::string& flag, std::string_view text, T* out,
                      T max = std::numeric_limits<T>::max()) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end ||
      v > static_cast<std::uint64_t>(max)) {
    return Status::InvalidArgument("bad value '" + std::string(text) +
                                   "' for " + flag + " (want an integer in 0.." +
                                   std::to_string(max) + ")");
  }
  *out = static_cast<T>(v);
  return Status::OK();
}

// Strict: unknown --flags (and flags missing their value) are errors,
// not positional arguments.
Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--seed" && has_value) {
      TSAD_RETURN_IF_ERROR(ParseFlagValue(arg, argv[++i], &args.seed));
    } else if (arg == "--out" && has_value) {
      args.out = argv[++i];
      args.out_set = true;
    } else if (arg == "--detector" && has_value) {
      args.detector = argv[++i];
    } else if (arg == "--detectors" && has_value) {
      args.detectors = argv[++i];
    } else if (arg == "--report" && has_value) {
      args.report = argv[++i];
    } else if (arg == "--threads" && has_value) {
      TSAD_ASSIGN_OR_RETURN(args.threads, ParseThreadCount(argv[++i]));
    } else if (arg == "--mp-isa" && has_value) {
      args.mp_isa = argv[++i];
    } else if (arg == "--min-length" && has_value) {
      TSAD_RETURN_IF_ERROR(ParseFlagValue(arg, argv[++i], &args.min_length));
    } else if (arg == "--max-length" && has_value) {
      TSAD_RETURN_IF_ERROR(ParseFlagValue(arg, argv[++i], &args.max_length));
    } else if (arg == "--step" && has_value) {
      TSAD_RETURN_IF_ERROR(ParseFlagValue(arg, argv[++i], &args.step));
    } else if (arg == "--replay" && has_value) {
      args.replay = argv[++i];
    } else if (arg == "--streams" && has_value) {
      TSAD_RETURN_IF_ERROR(ParseFlagValue(arg, argv[++i], &args.streams));
    } else if (arg == "--batch" && has_value) {
      TSAD_RETURN_IF_ERROR(ParseFlagValue(arg, argv[++i], &args.batch));
    } else if (arg == "--queue" && has_value) {
      TSAD_RETURN_IF_ERROR(ParseFlagValue(arg, argv[++i], &args.queue));
    } else if (arg == "--policy" && has_value) {
      args.policy = argv[++i];
    } else if (arg == "--deadline-ms" && has_value) {
      TSAD_RETURN_IF_ERROR(
          ParseFlagValue(arg, argv[++i], &args.deadline_ms, kMaxDeadlineMs));
    } else if (arg == "--no-verify") {
      args.no_verify = true;
    } else if (arg == "--priority" && has_value) {
      args.priority = argv[++i];
    } else if (arg == "--mem-budget" && has_value) {
      TSAD_RETURN_IF_ERROR(ParseFlagValue(arg, argv[++i], &args.mem_budget));
    } else if (arg == "--recover" && has_value) {
      TSAD_RETURN_IF_ERROR(ParseFlagValue(arg, argv[++i], &args.recover));
    } else if (arg == "--metrics" && has_value) {
      args.metrics = argv[++i];
    } else if (arg == "--families" && has_value) {
      args.families = argv[++i];
    } else if (arg == "--max-series" && has_value) {
      TSAD_RETURN_IF_ERROR(ParseFlagValue(arg, argv[++i], &args.max_series));
    } else if (arg == "--delay-k" && has_value) {
      TSAD_RETURN_IF_ERROR(ParseFlagValue(arg, argv[++i], &args.delay_k));
    } else if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg.rfind("--", 0) == 0) {
      return Status::InvalidArgument(
          has_value ? "unknown flag '" + arg + "'"
                    : "flag '" + arg + "' is missing its value");
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

int Usage() {
  std::printf(
      "usage:\n"
      "  tsad generate <yahoo|taxi|nasa|archive> [--seed N] [--out DIR]\n"
      "  tsad audit <file.csv...> [--report FILE.md]\n"
      "  tsad triviality <file.csv...>\n"
      "  tsad detect <file.csv> [--detector SPEC]\n"
      "  tsad panprofile <file.csv> [--min-length N] [--max-length N]\n"
      "             [--step S]\n"
      "  tsad robustness [file.csv] [--detectors SPEC,SPEC,...] [--seed N]\n"
      "  tsad table1 [--seed N]\n"
      "  tsad serve --replay FILE.csv [--streams N] [--detector SPEC]\n"
      "             [--batch B] [--queue C] [--policy block|shed]\n"
      "             [--deadline-ms D] [--no-verify]\n"
      "             [--priority critical|high|normal|batch]\n"
      "             [--mem-budget BYTES] [--recover RETRIES]\n"
      "  tsad leaderboard [--detectors SPEC,SPEC,...] [--families LIST]\n"
      "             [--metrics LIST] [--max-series N] [--delay-k K]\n"
      "             [--seed N] [--out FILE.json] [--smoke]\n"
      "  tsad list-detectors\n"
      "global flags:\n"
      "  --threads N   parallel pool size, 0..%zu (default 0: TSAD_THREADS\n"
      "                env, then hardware concurrency; 1 = serial)\n"
      "  --mp-isa T    force the matrix-profile SIMD tier: auto (default,\n"
      "                detected via CPUID), scalar, sse2, avx2, or avx512;\n"
      "                a tier the host cannot run is an error, never a\n"
      "                silent downgrade (TSAD_MP_ISA env equivalent)\n",
      kMaxParallelThreads);
  return 1;
}

struct WriteTally {
  int written = 0;
  int failed = 0;
};

void WriteOne(const LabeledSeries& s, const std::string& path,
              WriteTally* tally) {
  const Status status = WriteSeriesCsv(s, path);
  if (status.ok()) {
    ++tally->written;
  } else {
    std::printf("  %s: %s\n", path.c_str(), status.ToString().c_str());
    ++tally->failed;
  }
}

void WriteDataset(const BenchmarkDataset& dataset, const std::string& dir,
                  WriteTally* tally) {
  for (const LabeledSeries& s : dataset.series) {
    WriteOne(s, dir + "/" + s.name() + ".csv", tally);
  }
}

int CmdGenerate(const Args& args) {
  if (args.positional.empty()) return Usage();
  std::error_code ec;
  std::filesystem::create_directories(args.out, ec);
  if (ec) {
    std::printf("cannot create %s: %s\n", args.out.c_str(),
                ec.message().c_str());
    return 1;
  }
  const std::string& what = args.positional[0];
  WriteTally tally;
  if (what == "yahoo") {
    YahooConfig config;
    config.seed = args.seed;
    const YahooArchive archive = GenerateYahooArchive(config);
    for (const BenchmarkDataset* d : archive.all()) {
      WriteDataset(*d, args.out, &tally);
    }
  } else if (what == "taxi") {
    NumentaConfig config;
    config.seed = args.seed;
    const TaxiData taxi = GenerateTaxiData(config);
    WriteOne(taxi.series, args.out + "/nyc_taxi.csv", &tally);
  } else if (what == "nasa") {
    NasaConfig config;
    config.seed = args.seed;
    WriteDataset(GenerateNasaArchive(config).channels, args.out, &tally);
  } else if (what == "archive") {
    const UcrArchive archive = BuildFullArchive(args.seed);
    for (const LabeledSeries& s : archive.datasets) {
      WriteOne(s, args.out + "/" + s.name() + ".csv", &tally);
    }
  } else {
    return Usage();
  }
  std::printf("%d file(s) written to %s/\n", tally.written, args.out.c_str());
  if (tally.failed > 0) {
    std::printf("%d file(s) FAILED to write\n", tally.failed);
    return 1;
  }
  return 0;
}

Result<BenchmarkDataset> LoadDataset(const std::vector<std::string>& paths) {
  BenchmarkDataset dataset;
  dataset.name = "cli input";
  for (const std::string& path : paths) {
    Result<LabeledSeries> series = ReadSeriesCsv(path);
    if (!series.ok()) return series.status();
    TSAD_RETURN_IF_ERROR(series->Validate());
    dataset.series.push_back(std::move(series.value()));
  }
  if (dataset.series.empty()) {
    return Status::InvalidArgument("no input files");
  }
  return dataset;
}

int CmdAudit(const Args& args) {
  Result<BenchmarkDataset> dataset = LoadDataset(args.positional);
  if (!dataset.ok()) {
    std::printf("%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const BenchmarkAudit audit = AuditBenchmark(*dataset, AuditConfig{});
  std::printf("%s", FormatAudit(audit).c_str());
  if (!args.report.empty()) {
    const Status written = WriteAuditReport(audit, *dataset, args.report);
    if (written.ok()) {
      std::printf("report written to %s\n", args.report.c_str());
    } else {
      std::printf("%s\n", written.ToString().c_str());
      return 1;
    }
  }
  return audit.irretrievably_flawed ? 2 : 0;
}

int CmdTriviality(const Args& args) {
  Result<BenchmarkDataset> dataset = LoadDataset(args.positional);
  if (!dataset.ok()) {
    std::printf("%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const TrivialityReport report = AnalyzeTriviality({&*dataset});
  for (const SeriesTriviality& s : report.series) {
    if (s.solution.solved) {
      std::printf("%-40s TRIVIAL: %s\n", s.series_name.c_str(),
                  s.solution.params.ToMatlab().c_str());
    } else {
      std::printf("%-40s not one-liner solvable\n", s.series_name.c_str());
    }
  }
  return report.solved > 0 ? 2 : 0;
}

int CmdDetect(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  Result<LabeledSeries> series = ReadSeriesCsv(args.positional[0]);
  if (!series.ok()) {
    std::printf("%s\n", series.status().ToString().c_str());
    return 1;
  }
  Result<std::unique_ptr<AnomalyDetector>> detector =
      MakeDetector(args.detector);
  if (!detector.ok()) {
    std::printf("%s\n", detector.status().ToString().c_str());
    return 1;
  }
  Result<std::vector<double>> scores = (*detector)->Score(*series);
  if (!scores.ok()) {
    std::printf("detector failed: %s\n", scores.status().ToString().c_str());
    return 1;
  }
  const std::size_t peak = PredictLocation(*scores, series->train_length());
  std::printf("detector : %s\n",
              std::string((*detector)->name()).c_str());
  std::printf("peak     : %zu (score %.4f)\n", peak,
              peak == kNoPrediction ? 0.0 : (*scores)[peak]);
  if (series->anomalies().size() == 1) {
    Result<UcrSeriesOutcome> outcome = ScoreUcrSeries(*series, peak);
    if (outcome.ok()) {
      std::printf("UCR check: %s (label [%zu, %zu))\n",
                  outcome->correct ? "CORRECT" : "incorrect",
                  outcome->anomaly.begin, outcome->anomaly.end);
    }
  }
  return 0;
}

int CmdPanProfile(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  Result<LabeledSeries> series = ReadSeriesCsv(args.positional[0]);
  if (!series.ok()) {
    std::printf("%s\n", series.status().ToString().c_str());
    return 1;
  }

  if (args.step == 0) {
    const Status bad_step = Status::InvalidArgument("--step must be >= 1");
    std::printf("%s\n", bad_step.ToString().c_str());
    return 1;
  }
  std::vector<LengthDiscord> rows;
  if (args.step == 1) {
    // The dense range goes through MERLIN's bound-and-refine search.
    Result<std::vector<LengthDiscord>> sweep =
        MerlinSweep(series->values(), args.min_length, args.max_length);
    if (!sweep.ok()) {
      std::printf("%s\n", sweep.status().ToString().c_str());
      return 1;
    }
    rows = std::move(sweep.value());
  } else {
    // A strided grid shares nothing between its lengths: one
    // single-length sweep per grid length, which answers as the dense
    // range does at that length.
    const Status range =
        ValidateMerlinLengths(args.min_length, args.max_length);
    if (!range.ok()) {
      std::printf("%s\n", range.ToString().c_str());
      return 1;
    }
    const std::size_t last = (args.max_length - args.min_length) / args.step;
    for (std::size_t k = 0; k <= last; ++k) {
      const std::size_t m = args.min_length + k * args.step;
      Result<std::vector<LengthDiscord>> one =
          MerlinSweep(series->values(), m, m);
      if (!one.ok()) {
        std::printf("%s\n", one.status().ToString().c_str());
        return 1;
      }
      rows.push_back(one->front());
    }
  }

  std::printf("series : %s (%zu points)\n", series->name().c_str(),
              series->length());
  std::printf("%8s %10s %12s %12s\n", "length", "position", "distance",
              "normalized");
  const LengthDiscord* peak = nullptr;
  for (const LengthDiscord& row : rows) {
    std::printf("%8zu %10zu %12.4f %12.4f\n", row.length, row.position,
                row.distance, row.normalized);
    if (peak == nullptr || row.normalized > peak->normalized) peak = &row;
  }
  if (peak != nullptr) {
    std::printf("peak   : length %zu at %zu (normalized %.4f)\n",
                peak->length, peak->position, peak->normalized);
  }
  return 0;
}

// A clean UCR-style demo series: seasonal signal + noise with one
// contextual anomaly, used when `tsad robustness` is given no file.
LabeledSeries SyntheticRobustnessSeries(uint64_t seed) {
  Rng rng(seed);
  Series x = Mix({Sinusoid(4000, 100.0, 1.0, 0.0),
                  GaussianNoise(4000, 0.15, rng)});
  const AnomalyRegion anomaly = InjectSmoothHump(x, 2800, 60, 1.2);
  return LabeledSeries("synthetic-demo", std::move(x), {anomaly}, 1000);
}

// True if s[from...] starts with a key=value parameter chunk (an '='
// before any ':', ',' or ';').
bool LooksLikeParam(const std::string& s, std::size_t from) {
  for (std::size_t i = from; i < s.size(); ++i) {
    if (s[i] == '=') return true;
    if (s[i] == ':' || s[i] == ',' || s[i] == ';') return false;
  }
  return false;
}

// Splits a --detectors list into specs. Commas separate both list
// entries and spec parameters, so a comma only starts a new spec when
// what follows is not a key=value chunk; semicolons always split.
std::vector<std::string> SplitSpecs(const std::string& list) {
  std::vector<std::string> specs;
  std::string current;
  for (std::size_t i = 0; i <= list.size(); ++i) {
    if (i == list.size() || list[i] == ';' ||
        (list[i] == ',' && !LooksLikeParam(list, i + 1))) {
      if (!current.empty()) specs.push_back(current);
      current.clear();
    } else {
      current += list[i];
    }
  }
  return specs;
}

int CmdRobustness(const Args& args) {
  if (args.positional.size() > 1) return Usage();
  LabeledSeries series;
  if (args.positional.empty()) {
    series = SyntheticRobustnessSeries(args.seed);
  } else {
    Result<LabeledSeries> loaded = ReadSeriesCsv(args.positional[0]);
    if (!loaded.ok()) {
      std::printf("%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    series = std::move(loaded.value());
  }

  std::vector<std::string> specs = SplitSpecs(args.detectors);
  if (specs.empty()) {
    specs = {"resilient:discord:m=128", "resilient:zscore:w=64",
             "resilient:sr"};
  }
  std::vector<std::unique_ptr<AnomalyDetector>> owned;
  std::vector<const AnomalyDetector*> detectors;
  for (const std::string& spec : specs) {
    Result<std::unique_ptr<AnomalyDetector>> d = MakeDetector(spec);
    if (!d.ok()) {
      std::printf("%s: %s\n", spec.c_str(), d.status().ToString().c_str());
      return 1;
    }
    detectors.push_back(d->get());
    owned.push_back(std::move(d.value()));
  }

  std::printf("series   : %s (%zu points, train %zu)\n",
              series.name().c_str(), series.length(), series.train_length());
  RobustnessConfig config;
  config.seed = args.seed;
  const std::vector<RobustnessCell> cells =
      RunRobustnessMatrix(series, detectors, config);
  std::printf("%s", FormatRobustnessTable(cells).c_str());

  std::size_t survived = 0;
  for (const RobustnessCell& cell : cells) survived += cell.survived ? 1 : 0;
  std::printf("\nsurvived %zu / %zu fault cells\n", survived, cells.size());
  return survived == cells.size() ? 0 : 2;
}

int CmdTable1(const Args& args) {
  YahooConfig config;
  config.seed = args.seed;
  const YahooArchive archive = GenerateYahooArchive(config);
  const TrivialityReport report = AnalyzeTriviality(archive.all());
  for (const DatasetTriviality& row : report.datasets) {
    std::printf("%-10s %3zu / %3zu  (%.1f%%)\n", row.dataset_name.c_str(),
                row.solved, row.total, row.solved_percent());
  }
  std::printf("%-10s %3zu / %3zu  (%.1f%%)\n", "Total", report.solved,
              report.total, report.solved_percent());
  return 0;
}

int CmdServe(const Args& args) {
  if (args.replay.empty()) {
    std::printf("serve requires --replay FILE.csv\n");
    return Usage();
  }
  if (!args.positional.empty()) return Usage();
  if (args.streams == 0) {
    std::printf("--streams must be at least 1\n");
    return 1;
  }
  ReplayOptions options;
  if (args.policy == "shed") {
    options.engine.overflow = OverflowPolicy::kShed;
  } else if (args.policy == "block") {
    options.engine.overflow = OverflowPolicy::kBlock;
  } else {
    std::printf("unknown --policy '%s' (want block or shed)\n",
                args.policy.c_str());
    return 1;
  }
  Result<LabeledSeries> series = ReadSeriesCsv(args.replay);
  if (!series.ok()) {
    std::printf("%s\n", series.status().ToString().c_str());
    return 1;
  }
  options.num_streams = args.streams;
  // The --detector default is detect's offline discord, which has no
  // online adapter; serve defaults to the moving z-score instead.
  options.detector_spec =
      args.detector == "discord:m=128" ? "zscore:w=64" : args.detector;
  options.train_length = series->train_length();
  options.batch = args.batch;
  options.verify_against_batch = !args.no_verify;
  if (args.queue > 0) options.engine.queue_capacity = args.queue;
  options.engine.stream_deadline =
      std::chrono::milliseconds(args.deadline_ms);
  Result<StreamPriority> priority = ParseStreamPriority(args.priority);
  if (!priority.ok()) {
    std::printf("%s\n", priority.status().ToString().c_str());
    return 1;
  }
  options.priority = priority.value();
  options.engine.memory_budget_bytes = args.mem_budget;
  options.engine.recovery.max_retries = args.recover;

  const Result<ReplayReport> report =
      ReplayThroughEngine(series->values(), options);
  if (!report.ok()) {
    std::printf("replay failed: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("series    : %s (%zu points, train %zu)\n",
              series->name().c_str(), series->length(),
              series->train_length());
  std::printf("detector  : %s\n", options.detector_spec.c_str());
  std::printf("streams   : %zu  (policy %s, batch %zu)\n", report->streams,
              args.policy.c_str(), options.batch);
  std::printf("throughput: %.0f points/sec (%zu points in %.3f s)\n",
              report->points_per_sec, report->points, report->seconds);
  std::printf("p99 pump  : %.3f ms   shed: %llu   denied: %llu\n",
              report->p99_pump_seconds * 1e3,
              static_cast<unsigned long long>(report->shed),
              static_cast<unsigned long long>(report->denied));
  if (args.mem_budget > 0 || args.recover > 0) {
    std::printf(
        "survival  : evictions %llu  thaws %llu  quarantines %llu"
        "  recoveries %llu\n",
        static_cast<unsigned long long>(report->cold_evictions),
        static_cast<unsigned long long>(report->thaws),
        static_cast<unsigned long long>(report->quarantines),
        static_cast<unsigned long long>(report->recoveries));
  }
  for (const auto& [type, mem] : report->detector_memory) {
    const double per_stream =
        mem.streams > 0 ? static_cast<double>(mem.bytes) /
                              static_cast<double>(mem.streams)
                        : 0.0;
    std::printf("memory    : %s  %llu streams  %llu bytes  (%.0f B/stream)\n",
                type.c_str(), static_cast<unsigned long long>(mem.streams),
                static_cast<unsigned long long>(mem.bytes), per_stream);
  }
  if (options.verify_against_batch) {
    std::printf("verify    : %s\n",
                report->verified ? "byte-identical to batch Score()"
                                 : "MISMATCH against batch Score()");
    return report->verified ? 0 : 2;
  }
  return 0;
}

int CmdLeaderboard(const Args& args) {
  if (!args.positional.empty()) return Usage();
  LeaderboardConfig config;
  config.seed = args.seed;
  config.max_series_per_family = args.max_series;
  config.delay_tolerance = args.delay_k;
  config.detectors = SplitSpecs(args.detectors);

  Result<std::vector<LeaderboardMetric>> metrics =
      ParseLeaderboardMetrics(args.metrics);
  if (!metrics.ok()) {
    std::printf("%s\n", metrics.status().ToString().c_str());
    return 1;
  }
  config.metrics = std::move(metrics.value());
  Result<std::vector<LeaderboardFamily>> families =
      ParseLeaderboardFamilies(args.families);
  if (!families.ok()) {
    std::printf("%s\n", families.status().ToString().c_str());
    return 1;
  }
  config.families = std::move(families.value());

  if (args.smoke) {
    // The CI-sized board: two cheap detectors, two fast families, two
    // series each. Explicit --detectors / --families still win.
    if (config.detectors.empty()) config.detectors = {"zscore", "oneliner"};
    if (args.families.empty()) {
      config.families = {LeaderboardFamily::kGait, LeaderboardFamily::kNab};
    }
    config.max_series_per_family = std::min<std::size_t>(
        config.max_series_per_family == 0 ? 2 : config.max_series_per_family,
        2);
  }

  Result<LeaderboardReport> report = RunLeaderboard(config);
  if (!report.ok()) {
    std::printf("%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", FormatLeaderboardTable(*report).c_str());

  if (args.out_set) {
    const std::string json = LeaderboardJson(*report);
    std::FILE* f = std::fopen(args.out.c_str(), "w");
    if (f == nullptr) {
      std::printf("cannot write %s\n", args.out.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("\nJSON report written to %s\n", args.out.c_str());
  }
  return 0;
}

int CmdListDetectors() {
  for (const std::string& name : RegisteredDetectorNames()) {
    std::printf("%s\n", name.c_str());
  }
  for (const std::string& prefix : RegisteredDetectorPrefixes()) {
    std::printf("%s\n", prefix.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Result<Args> args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::printf("%s\n", args.status().ToString().c_str());
    return Usage();
  }
  if (args->threads > 0) SetParallelThreads(args->threads);
  // Consume the TSAD_MP_ISA environment eagerly so an invalid value is
  // a clean error here instead of an abort inside the first profile
  // call. The explicit flag below still beats the env.
  if (const Status env = ApplySimdTierEnv(); !env.ok()) {
    std::printf("%s\n", env.ToString().c_str());
    return 1;
  }
  if (!args->mp_isa.empty()) {
    const Result<SimdTierRequest> request = ParseSimdTier(args->mp_isa);
    if (!request.ok()) {
      std::printf("%s\n", request.status().ToString().c_str());
      return Usage();
    }
    if (request->has_override) {
      const Status status = SetSimdTierOverride(request->tier);
      if (!status.ok()) {
        std::printf("%s\n", status.ToString().c_str());
        return 1;  // valid name, unsupported host: not a usage error
      }
    } else {
      ClearSimdTierOverride();
    }
  }
  if (command == "generate") return CmdGenerate(*args);
  if (command == "audit") return CmdAudit(*args);
  if (command == "triviality") return CmdTriviality(*args);
  if (command == "detect") return CmdDetect(*args);
  if (command == "panprofile") return CmdPanProfile(*args);
  if (command == "robustness") return CmdRobustness(*args);
  if (command == "table1") return CmdTable1(*args);
  if (command == "serve") return CmdServe(*args);
  if (command == "leaderboard") return CmdLeaderboard(*args);
  if (command == "list-detectors") return CmdListDetectors();
  return Usage();
}
