#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench {

void Outcome::Count(std::uint64_t attempted, std::uint64_t failed,
                    const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    std::printf("FAILED: %llu of %llu %s\n",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted), what.c_str());
  }
}

bool Outcome::Gate(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    correct_ = false;
    std::printf("GATE FAILED: %s\n", what.c_str());
  }
  return ok;
}

void Outcome::EndToEnd(const std::string& name, double value,
                       const std::string& unit) {
  end_to_end_.push_back({name, value, unit});
}

void Outcome::Layer(const std::string& name, double value,
                    const std::string& unit) {
  layer_.push_back({name, value, unit});
}

void Outcome::Headline(const std::string& name, double value,
                       const std::string& unit, const std::string& note) {
  headline_.push_back({name, value, unit});
  notes_.push_back(note);
}

void Outcome::Setting(const std::string& name, const std::string& value) {
  settings_.emplace_back(name, value);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

std::vector<double> TimeRepeated(double budget_s, int min_reps, int max_reps,
                                 const std::function<void()>& fn) {
  std::vector<double> times;
  double total = 0.0;
  while (static_cast<int>(times.size()) < max_reps) {
    if (static_cast<int>(times.size()) >= min_reps) {
      const double expected = total / static_cast<double>(times.size());
      if (total + expected > budget_s) break;
    }
    const Clock::time_point start = Clock::now();
    fn();
    times.push_back(SecondsSince(start));
    total += times.back();
  }
  return times;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string MetricSafe(std::string spec) {
  for (char& c : spec) {
    if (c == ':' || c == '=') c = '-';
  }
  return spec;
}

double SpanSeconds(const std::vector<trace::Span>& spans,
                   const std::string& name, const std::string& spec) {
  double total = 0.0;
  for (const trace::Span& s : spans) {
    if (s.name == name && (spec.empty() || s.attrs.spec == spec)) {
      total += s.seconds();
    }
  }
  return total;
}

std::vector<double> SpanDurations(const std::vector<trace::Span>& spans,
                                  const std::string& name) {
  std::vector<double> out;
  for (const trace::Span& s : spans) {
    if (s.name == name) out.push_back(s.seconds());
  }
  return out;
}

Efficiency ParallelEfficiency(const std::vector<trace::Span>& spans,
                              const std::string& fanout,
                              const std::string& task, std::size_t threads) {
  std::map<std::uint64_t, double> wall;  // fan-out span id -> seconds
  for (const trace::Span& s : spans) {
    if (s.name == fanout) wall[s.id] = s.seconds();
  }
  Efficiency out;
  double busy = 0.0;
  for (const trace::Span& s : spans) {
    if (s.name != task || wall.count(s.parent) == 0) continue;
    busy += s.seconds();
    out.max_task_s = std::max(out.max_task_s, s.seconds());
  }
  double makespan = 0.0;
  for (const auto& [id, seconds] : wall) makespan += seconds;
  if (makespan > 0.0 && threads > 0) {
    out.efficiency = busy / (static_cast<double>(threads) * makespan);
  }
  return out;
}

}  // namespace perfbench
