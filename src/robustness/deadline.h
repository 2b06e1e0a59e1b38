// Cooperative per-run deadlines.
//
// A DeadlineScope installs a deadline for the current thread;
// long-running library code (the MPX matrix-profile loops, the
// resilient wrapper's pipeline) polls CheckDeadline() at safe points
// and unwinds with kDeadlineExceeded once the budget is spent. The
// watchdog is cooperative rather than preemptive: a detector that
// never polls cannot be interrupted mid-flight, but in exchange nothing
// is ever torn down in an inconsistent state — no threads, signals or
// locks are involved and unwinding is always a clean Status return.

#ifndef TSAD_ROBUSTNESS_DEADLINE_H_
#define TSAD_ROBUSTNESS_DEADLINE_H_

#include <chrono>

#include "common/status.h"

namespace tsad {

/// RAII guard installing a deadline for the current thread. Scopes
/// nest: an inner scope can only tighten the effective deadline, never
/// extend past the enclosing one. The enclosing deadline (if any) is
/// restored on destruction.
class DeadlineScope {
 public:
  explicit DeadlineScope(std::chrono::nanoseconds budget);
  /// Installs an absolute deadline — the adoption form used to carry a
  /// deadline across threads: the parallel layer captures
  /// DeadlineTimePoint() on the submitting thread and re-installs it on
  /// each worker, so workers poll CheckDeadline() against the same wall
  /// deadline as the submitter (no budget drift from queueing delay).
  explicit DeadlineScope(std::chrono::steady_clock::time_point deadline);
  ~DeadlineScope();

  DeadlineScope(const DeadlineScope&) = delete;
  DeadlineScope& operator=(const DeadlineScope&) = delete;

 private:
  std::chrono::steady_clock::time_point previous_;
  bool had_previous_;
};

/// True if a DeadlineScope is active on the current thread.
bool DeadlineActive();

/// OK when no deadline is active or time remains; kDeadlineExceeded
/// once the active deadline has passed. One steady_clock read — cheap
/// enough to poll every few thousand inner-loop iterations.
Status CheckDeadline();

/// Remaining budget, or nanoseconds::max() when no deadline is active.
/// Clamped at zero once expired.
std::chrono::nanoseconds DeadlineRemaining();

/// The absolute deadline of the innermost active scope. Precondition:
/// DeadlineActive(). Pair with the time-point DeadlineScope constructor
/// to adopt this thread's deadline on another thread.
std::chrono::steady_clock::time_point DeadlineTimePoint();

}  // namespace tsad

#endif  // TSAD_ROBUSTNESS_DEADLINE_H_
