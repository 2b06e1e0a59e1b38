#include "robustness/deadline.h"

#include <algorithm>

namespace tsad {

namespace {

using Clock = std::chrono::steady_clock;

// The active deadline for this thread. A flag instead of optional<> so
// the thread_local is trivially constructible/destructible.
thread_local bool g_deadline_active = false;
thread_local Clock::time_point g_deadline;

// now + budget, saturated at the clock's last time point: a budget past
// it never expires instead of wrapping into the past.
Clock::time_point DeadlineAfter(std::chrono::nanoseconds budget) {
  const Clock::time_point now = Clock::now();
  if (budget > Clock::time_point::max() - now) return Clock::time_point::max();
  return now + budget;
}

}  // namespace

DeadlineScope::DeadlineScope(std::chrono::nanoseconds budget)
    : DeadlineScope(DeadlineAfter(budget)) {}

DeadlineScope::DeadlineScope(std::chrono::steady_clock::time_point deadline)
    : previous_(g_deadline), had_previous_(g_deadline_active) {
  if (had_previous_) deadline = std::min(deadline, previous_);  // only tighten
  g_deadline = deadline;
  g_deadline_active = true;
}

DeadlineScope::~DeadlineScope() {
  g_deadline = previous_;
  g_deadline_active = had_previous_;
}

bool DeadlineActive() { return g_deadline_active; }

Status CheckDeadline() {
  if (!g_deadline_active || Clock::now() < g_deadline) return Status::OK();
  return Status::DeadlineExceeded("cooperative deadline expired");
}

std::chrono::nanoseconds DeadlineRemaining() {
  if (!g_deadline_active) return std::chrono::nanoseconds::max();
  const auto left = g_deadline - Clock::now();
  return left.count() > 0 ? std::chrono::duration_cast<std::chrono::nanoseconds>(
                                left)
                          : std::chrono::nanoseconds::zero();
}

std::chrono::steady_clock::time_point DeadlineTimePoint() {
  return g_deadline;
}

}  // namespace tsad
