#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

namespace perfbench::trace {

namespace {

using Clock = std::chrono::steady_clock;

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_thread{0};
const Clock::time_point g_epoch = Clock::now();

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::mutex mu;  // guards spans (Collect reads from another thread)
  std::vector<Span> spans;
  std::vector<std::uint64_t> open;  // ids of this thread's open Scopes
};

std::mutex g_registry_mu;
std::vector<std::shared_ptr<ThreadBuffer>>& Registry() {
  static std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  return buffers;
}

ThreadBuffer& Local() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    b->thread = g_next_thread.fetch_add(1);
    std::lock_guard<std::mutex> lock(g_registry_mu);
    Registry().push_back(b);
    return b;
  }();
  return *buffer;
}

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           g_epoch)
          .count());
}

void AppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out->push_back(' ');
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

}  // namespace

void SetEnabled(bool enabled) { g_enabled.store(enabled); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

Scope::Scope(std::string name, Attrs attrs, std::uint64_t parent) {
  if (!Enabled()) return;
  ThreadBuffer& local = Local();
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = parent != 0 ? parent : (local.open.empty() ? 0 : local.open.back());
  name_ = std::move(name);
  attrs_ = std::move(attrs);
  local.open.push_back(id_);
  start_ns_ = NowNs();
}

Scope::~Scope() {
  if (id_ == 0) return;
  const std::uint64_t end = NowNs();
  ThreadBuffer& local = Local();
  local.open.pop_back();
  Span span;
  span.name = std::move(name_);
  span.attrs = std::move(attrs_);
  span.start_ns = start_ns_;
  span.end_ns = end;
  span.id = id_;
  span.parent = parent_;
  span.thread = local.thread;
  std::lock_guard<std::mutex> lock(local.mu);
  local.spans.push_back(std::move(span));
}

std::vector<Span> Collect() {
  std::vector<Span> all;
  std::lock_guard<std::mutex> registry_lock(g_registry_mu);
  for (const auto& buffer : Registry()) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

void Clear() {
  std::lock_guard<std::mutex> registry_lock(g_registry_mu);
  for (const auto& buffer : Registry()) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    buffer->spans.clear();
  }
}

std::string ChromeTraceJson(const std::vector<Span>& spans,
                            const std::string& metadata_json) {
  std::string out = "{\"metadata\": " + metadata_json + ",\n\"traceEvents\": [";
  char buf[160];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"name\": ";
    AppendEscaped(&out, s.name);
    std::snprintf(buf, sizeof(buf),
                  ", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"args\": {\"id\": %llu, \"parent\": %llu",
                  s.thread, static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent));
    out += buf;
    if (!s.attrs.spec.empty()) {
      out += ", \"spec\": ";
      AppendEscaped(&out, s.attrs.spec);
    }
    if (!s.attrs.family.empty()) {
      out += ", \"family\": ";
      AppendEscaped(&out, s.attrs.family);
    }
    if (s.attrs.n >= 0) out += ", \"n\": " + std::to_string(s.attrs.n);
    if (s.attrs.m >= 0) out += ", \"m\": " + std::to_string(s.attrs.m);
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

std::string Summary(const std::vector<Span>& spans) {
  std::map<std::string, std::vector<double>> by_name;
  for (const Span& s : spans) by_name[s.name].push_back(s.seconds());
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-40s %9s %12s %12s %12s\n", "span",
                "count", "total_s", "p50_ms", "p99_ms");
  out += buf;
  for (auto& [name, durations] : by_name) {
    std::sort(durations.begin(), durations.end());
    double total = 0.0;
    for (double d : durations) total += d;
    std::snprintf(buf, sizeof(buf), "%-40s %9zu %12.6f %12.6f %12.6f\n",
                  name.c_str(), durations.size(), total,
                  NearestRank(durations, 0.50) * 1e3,
                  NearestRank(durations, 0.99) * 1e3);
    out += buf;
  }
  return out;
}

}  // namespace perfbench::trace
