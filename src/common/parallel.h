// The parallel execution layer: a lazily-initialized fixed thread pool
// behind a ParallelFor / ParallelMap API, built for the repository's
// embarrassingly parallel hot loops (per-series triviality search,
// the MPX diagonal tiles, the robustness matrix, archive evaluation).
//
// Guarantees, in order of importance:
//
//  * Determinism. Results are placed by index, never by completion
//    order, and error propagation always surfaces the LOWEST-index
//    failure. Given a per-index function that is itself deterministic,
//    output is bit-identical at every thread count — `--threads 1`,
//    `--threads 8` and the serial fallback all produce the same bytes.
//  * Containment. A worker returning a non-OK Status stops new work
//    from starting at higher indices; a worker that throws is caught
//    and converted to an Internal status. Neither deadlocks the pool
//    or takes the process down.
//
// Thread count resolution (first match wins): SetParallelThreads(n)
// with n > 0, the TSAD_THREADS environment variable, then
// hardware_concurrency. A count of 1 runs the loop inline on the
// calling thread through the same chunk-execution code path — an exact
// serial fallback, not a separate implementation. Nested ParallelFor
// calls from inside a worker also run inline (no pool re-entry, no
// deadlock).

#ifndef TSAD_COMMON_PARALLEL_H_
#define TSAD_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace tsad {

/// The effective thread count for parallel loops: the explicit
/// SetParallelThreads override if set, else TSAD_THREADS from the
/// environment (read once), else std::thread::hardware_concurrency
/// (never less than 1).
std::size_t ParallelThreads();

/// Overrides the thread count (the `--threads` CLI flag lands here).
/// 0 clears the override and returns to env/hardware resolution. The
/// pool is resized lazily on the next parallel call; a resize request
/// made while loops are in flight takes effect once they drain.
void SetParallelThreads(std::size_t n);

/// Largest thread count ParseThreadCount accepts: far above any host
/// this runs on, yet small enough that a typo cannot ask the pool for
/// billions of workers.
inline constexpr std::size_t kMaxParallelThreads = 1024;

/// Parses a thread count as given to `--threads` or in TSAD_THREADS:
/// decimal digits only (no sign, space or trailing junk), at most
/// kMaxParallelThreads. 0 keeps its meaning of "no override"
/// (TSAD_THREADS, then hardware). Anything else is InvalidArgument.
Result<std::size_t> ParseThreadCount(std::string_view text);

/// Runs fn(i) for every i in [begin, end), distributing chunks of
/// `grain` consecutive indices across the pool. Blocks until all work
/// finishes. Returns OK if every invocation returned OK; otherwise the
/// Status of the lowest failing index (deterministic across thread
/// counts). Once an error at index e is recorded, indices > e may be
/// skipped; indices < e are always attempted.
Status ParallelFor(std::size_t begin, std::size_t end,
                   const std::function<Status(std::size_t)>& fn,
                   std::size_t grain = 1);

/// Maps fn over [0, n) into an index-ordered vector: out[i] = fn(i)'s
/// value. First (lowest-index) error wins, as with ParallelFor.
template <typename T, typename Fn>
Result<std::vector<T>> ParallelMap(std::size_t n, Fn&& fn,
                                   std::size_t grain = 1) {
  std::vector<std::optional<T>> slots(n);
  Status s = ParallelFor(
      0, n,
      [&](std::size_t i) -> Status {
        Result<T> r = fn(i);
        if (!r.ok()) return r.status();
        slots[i].emplace(std::move(r).value());
        return Status::OK();
      },
      grain);
  if (!s.ok()) return s;
  std::vector<T> out;
  out.reserve(n);
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

}  // namespace tsad

#endif  // TSAD_COMMON_PARALLEL_H_
