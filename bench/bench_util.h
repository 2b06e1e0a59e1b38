// Small shared helpers for the reproduction benches: formatting, the
// --threads flag, and machine-readable BENCH_*.json perf records.

#ifndef TSAD_BENCH_BENCH_UTIL_H_
#define TSAD_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/cpu_features.h"
#include "common/parallel.h"

namespace tsad::bench {

/// Applies a `--threads N` argument (if present) to the parallel layer
/// and strips it from argv. TSAD_THREADS in the environment still works
/// without the flag — this only adds the explicit override. Exits on a
/// value ParseThreadCount refuses.
inline void InitThreadsFromArgs(int* argc, char** argv) {
  for (int i = 1; i < *argc; ++i) {
    if (std::string(argv[i]) == "--threads" && i + 1 < *argc) {
      const Result<std::size_t> threads = ParseThreadCount(argv[i + 1]);
      if (!threads.ok()) {
        std::fprintf(stderr, "%s\n", threads.status().ToString().c_str());
        std::exit(1);
      }
      SetParallelThreads(*threads);
      for (int j = i; j + 2 < *argc; ++j) argv[j] = argv[j + 2];
      *argc -= 2;
      return;
    }
  }
}

/// Applies a `--mp-isa T` argument (if present) as the process-wide
/// SIMD-tier override for the matrix-profile kernels and strips it from
/// argv (same values, "did you mean" rejection and unsupported-tier
/// refusal as the tsad CLI flag). Also consumes TSAD_MP_ISA eagerly so
/// an invalid environment value is a clean exit here, not a mid-bench
/// abort. Exits on error — a bench silently timing the wrong tier would
/// poison the perf record.
inline void InitMpIsaFromArgs(int* argc, char** argv) {
  const Status env = ApplySimdTierEnv();
  if (!env.ok()) {
    std::fprintf(stderr, "%s\n", env.ToString().c_str());
    std::exit(1);
  }
  for (int i = 1; i < *argc; ++i) {
    if (std::string(argv[i]) == "--mp-isa" && i + 1 < *argc) {
      const Result<SimdTierRequest> request = ParseSimdTier(argv[i + 1]);
      if (!request.ok()) {
        std::fprintf(stderr, "%s\n", request.status().ToString().c_str());
        std::exit(1);
      }
      if (request->has_override) {
        const Status status = SetSimdTierOverride(request->tier);
        if (!status.ok()) {
          std::fprintf(stderr, "%s\n", status.ToString().c_str());
          std::exit(1);
        }
      } else {
        ClearSimdTierOverride();
      }
      for (int j = i; j + 2 < *argc; ++j) argv[j] = argv[j + 2];
      *argc -= 2;
      return;
    }
  }
}

/// Consumes a bare `--<flag>` from argv, returning whether it was
/// present. Used for `--smoke` (the `ctest -L perf_smoke` mode: tiny
/// inputs, no JSON, no google-benchmark suites).
inline bool ConsumeFlag(int* argc, char** argv, const std::string& flag) {
  for (int i = 1; i < *argc; ++i) {
    if (flag == argv[i]) {
      for (int j = i; j + 1 < *argc; ++j) argv[j] = argv[j + 1];
      *argc -= 1;
      return true;
    }
  }
  return false;
}

/// Writes a flat JSON object of numeric fields to BENCH_<name>.json in
/// the working directory (override the directory with TSAD_BENCH_DIR).
/// One file per bench run, overwritten each time — the perf trajectory
/// across PRs is tracked by archiving these from CI.
inline void WriteBenchJson(
    const std::string& name,
    const std::vector<std::pair<std::string, double>>& fields,
    const std::vector<std::pair<std::string, std::string>>& text_fields = {}) {
  const char* dir = std::getenv("TSAD_BENCH_DIR");
  const std::string path =
      (dir != nullptr && *dir != '\0' ? std::string(dir) + "/" : std::string()) +
      "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\"", name.c_str());
  for (const auto& [key, value] : text_fields) {
    std::fprintf(f, ",\n  \"%s\": \"%s\"", key.c_str(), value.c_str());
  }
  for (const auto& [key, value] : fields) {
    std::fprintf(f, ",\n  \"%s\": %.6f", key.c_str(), value);
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

/// Prints a boxed section header.
inline void PrintHeader(const std::string& title) {
  std::printf("\n%s\n", std::string(72, '=').c_str());
  std::printf("%s\n", title.c_str());
  std::printf("%s\n", std::string(72, '=').c_str());
}

/// Renders a coarse ASCII sparkline of a series, at most 70 characters
/// wide (for the paper's "visualize the data" recommendation, §4.3).
inline std::string Sparkline(const std::vector<double>& x) {
  constexpr std::size_t kWidth = 70;
  static const char* kLevels[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
  if (x.empty()) return "";
  double lo = x[0], hi = x[0];
  for (double v : x) {
    lo = v < lo ? v : lo;
    hi = v > hi ? v : hi;
  }
  const double range = hi - lo > 1e-12 ? hi - lo : 1.0;
  std::string out;
  const std::size_t stride = x.size() / kWidth + 1;
  for (std::size_t i = 0; i < x.size(); i += stride) {
    double peak = x[i];
    for (std::size_t j = i; j < i + stride && j < x.size(); ++j) {
      peak = x[j] > peak ? x[j] : peak;
    }
    const int level =
        static_cast<int>((peak - lo) / range * 7.0 + 0.5);
    out += kLevels[level < 0 ? 0 : (level > 7 ? 7 : level)];
  }
  return out;
}

}  // namespace tsad::bench

#endif  // TSAD_BENCH_BENCH_UTIL_H_
