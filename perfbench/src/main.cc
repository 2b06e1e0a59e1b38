// perfbench: the repository benchmark. Runs one workload through the
// tsad public API and prints, as its last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics of the traced run with
// --trace 1. Every run also writes a record stamped with the host
// fingerprint and run settings (and, when traced, a Chrome trace and a
// per-span summary) under --out.
//
//   perfbench --workload leaderboard|table1|serve|discovery --seed N
//             --seconds S --trace 0|1 [--commit SHA] [--out DIR]
//
// The thread count is min(4, nproc) for leaderboard and min(2, nproc)
// for the other workloads, fixed for the whole run.

#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "common/cpu_features.h"
#include "common/parallel.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Outcome;

// The CPUID brand string; "unknown" where there is none.
std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const std::size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

// Host fingerprint plus run settings, as one JSON object.
std::string FingerprintJson(const Options& options, const Outcome& outcome) {
  std::string out = "{";
  out += "\"cpu_model\": " + JsonString(CpuModel());
  out += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"simd_detected\": " +
         JsonString(tsad::SimdTierName(tsad::DetectSimdTier()));
  out += ", \"simd_active\": " +
         JsonString(tsad::SimdTierName(tsad::ActiveSimdTier()));
  out += ", \"compiler\": " + JsonString(PERFBENCH_COMPILER);
  out += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  out += ", \"commit\": " + JsonString(options.commit);
  out += ", \"workload\": " + JsonString(options.workload);
  out += ", \"seed\": " + std::to_string(options.seed);
  out += ", \"seconds\": " + JsonNumber(options.seconds);
  out += ", \"trace\": " + std::string(options.trace ? "1" : "0");
  out += ", \"threads\": " + std::to_string(tsad::ParallelThreads());
  for (const auto& [name, value] : outcome.settings()) {
    out += ", " + JsonString(name) + ": " + JsonString(value);
  }
  return out + "}";
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--commit") {
      options->commit = value;
    } else if (flag == "--out") {
      options->out_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (argc % 2 != 1) {
    std::fprintf(stderr, "every flag takes one value\n");
    return false;
  }
  return !options->workload.empty() && options->seconds > 0.0;
}

void WriteFile(const std::filesystem::path& path, const std::string& text) {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream(path) << text;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  const unsigned hw = std::thread::hardware_concurrency();
  options.out_dir = "perfbench-out";
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload leaderboard|table1|serve|"
                 "discovery --seed N --seconds S --trace 0|1 [--commit SHA] "
                 "[--out DIR]\n");
    return 2;
  }
  // table1, serve and discovery fan out and meet at a barrier many times
  // per pass (per Pump, per kernel call), so on a shared host every
  // descheduled worker stalls the rest; two threads keep them parallel
  // while leaving cores to the neighbours. The leaderboard's tasks are
  // whole (detector, series) scorings, and at two threads a pass would
  // not fit the run.
  const std::size_t cap = options.workload == "leaderboard" ? 4 : 2;
  options.threads = hw == 0 ? 1 : std::min<std::size_t>(cap, hw);
  // One fixed thread count for the whole run.
  tsad::SetParallelThreads(options.threads);
  if (!tsad::ApplySimdTierEnv().ok()) {
    std::fprintf(stderr, "invalid TSAD_MP_ISA\n");
    return 2;
  }
  std::printf("perfbench %s  seed=%llu seconds=%g trace=%d threads=%zu\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, tsad::ParallelThreads());
  std::fflush(stdout);

  Outcome outcome;
  if (options.workload == "leaderboard") {
    outcome = perfbench::RunLeaderboardWorkload(options);
  } else if (options.workload == "table1") {
    outcome = perfbench::RunTable1Workload(options);
  } else if (options.workload == "serve") {
    outcome = perfbench::RunServeWorkload(options);
  } else if (options.workload == "discovery") {
    outcome = perfbench::RunDiscoveryWorkload(options);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }

  const std::string fingerprint = FingerprintJson(options, outcome);
  std::printf("host: %s\n", fingerprint.c_str());
  for (std::size_t i = 0; i < outcome.headline().size(); ++i) {
    const Metric& m = outcome.headline()[i];
    std::printf("  %-22s %14.6g %-9s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), outcome.notes()[i].c_str());
  }
  const double error_rate =
      outcome.attempted() == 0
          ? 0.0
          : static_cast<double>(outcome.failed()) /
                static_cast<double>(outcome.attempted());
  std::printf("  %-22s %14.6g %-9s %llu failed of %llu attempted\n",
              "error_rate", error_rate, "fraction",
              static_cast<unsigned long long>(outcome.failed()),
              static_cast<unsigned long long>(outcome.attempted()));

  const std::vector<Metric>& metrics =
      options.trace ? outcome.layer() : outcome.end_to_end();
  std::string result = "{\"correct\": " +
                       std::string(outcome.correct() ? "true" : "false") +
                       ", \"attempted\": " +
                       std::to_string(outcome.attempted()) +
                       ", \"failed\": " + std::to_string(outcome.failed()) +
                       ", \"metrics\": " + MetricsJson(metrics) + "}";
  const std::filesystem::path record =
      std::filesystem::path(options.out_dir) / "records" /
      (options.workload + "-seed" + std::to_string(options.seed) + "-trace" +
       (options.trace ? "1" : "0") + ".json");
  WriteFile(record, "{\"fingerprint\": " + fingerprint +
                        ", \"error_rate\": " + JsonNumber(error_rate) +
                        ", \"headline\": " + MetricsJson(outcome.headline()) +
                        ", \"result\": " + result + "}\n");
  if (options.trace) {
    const std::vector<perfbench::trace::Span> spans = perfbench::trace::Collect();
    const std::filesystem::path base =
        std::filesystem::path(options.out_dir) / "traces" /
        (options.workload + "-seed" + std::to_string(options.seed));
    WriteFile(base.string() + ".trace.json",
              perfbench::trace::ChromeTraceJson(spans, fingerprint));
    const std::string summary = perfbench::trace::Summary(spans);
    WriteFile(base.string() + ".summary.txt", summary);
    std::printf("%s", summary.c_str());
    std::printf("trace: %s.trace.json\n", base.string().c_str());
  }
  std::printf("%s\n", result.c_str());
  return outcome.correct() ? 0 : 1;
}
