// Span recorder for the traced benchmark run.
//
// A span covers one call the benchmark makes into a library layer. It
// records a name, start and end (steady clock, ns since the recorder's
// epoch), its parent span, the recording thread, and a few attributes
// (spec, family, n, m). Spans land in per-thread buffers, so recording
// takes only its own thread's uncontended lock; Collect() merges them
// once the workload is done. When tracing is off, a Scope records
// nothing: it costs building its arguments and one relaxed atomic load.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench::trace {

struct Attrs {
  Attrs(std::string spec_ = "", std::string family_ = "", std::int64_t n_ = -1,
        std::int64_t m_ = -1)
      : spec(std::move(spec_)), family(std::move(family_)), n(n_), m(m_) {}

  std::string spec;
  std::string family;
  std::int64_t n;  // -1 = unset
  std::int64_t m;
};

struct Span {
  std::string name;
  Attrs attrs;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint32_t thread = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

void SetEnabled(bool enabled);
bool Enabled();

/// Records a span from construction to destruction. The parent is the
/// innermost open Scope on this thread unless `parent` is given (tasks
/// run on pool threads pass their submitter's span id).
class Scope {
 public:
  explicit Scope(std::string name, Attrs attrs = {}, std::uint64_t parent = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// This span's id (0 when tracing is off).
  std::uint64_t id() const { return id_; }

 private:
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t start_ns_ = 0;
  std::string name_;
  Attrs attrs_;
};

/// Every span recorded so far, merged across threads, in start order.
std::vector<Span> Collect();

/// Drops every recorded span.
void Clear();

/// Chrome trace-event JSON (opens in chrome://tracing or Perfetto).
/// `metadata_json` is a JSON object placed under "metadata".
std::string ChromeTraceJson(const std::vector<Span>& spans,
                            const std::string& metadata_json);

/// One line per span name: count, total, p50 and p99.
std::string Summary(const std::vector<Span>& spans);

}  // namespace perfbench::trace

#endif  // PERFBENCH_TRACE_H_
