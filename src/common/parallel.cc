#include "common/parallel.h"

#include <atomic>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace tsad {

namespace {

// Set on pool threads so nested ParallelFor calls run inline instead of
// re-entering the pool (which could otherwise deadlock: every worker
// waiting on work only workers can finish).
thread_local bool t_in_worker = false;

// --threads override; 0 means "not set".
std::atomic<std::size_t> g_thread_override{0};

std::size_t HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

// TSAD_THREADS, read once; a value ParseThreadCount refuses is ignored.
std::size_t EnvThreads() {
  static const std::size_t cached = [] {
    const char* env = std::getenv("TSAD_THREADS");
    if (env == nullptr) return std::size_t{0};
    return ParseThreadCount(env).value_or(0);
  }();
  return cached;
}

// One ParallelFor invocation: a chunk-claim counter plus completion and
// first-error bookkeeping, shared between the submitting thread and the
// pool workers.
struct Job {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t grain = 1;
  std::size_t num_chunks = 0;
  const std::function<Status(std::size_t)>* fn = nullptr;

  std::atomic<std::size_t> next_chunk{0};  // claim counter
  std::atomic<std::size_t> remaining;      // chunks not yet finished

  // Lowest failing index and its Status. error_index doubles as the
  // cheap skip signal: chunks entirely above it are not executed.
  std::atomic<std::size_t> error_index{kNoError};
  Status first_error;
  std::mutex error_mu;

  std::mutex done_mu;
  std::condition_variable done_cv;

  static constexpr std::size_t kNoError = static_cast<std::size_t>(-1);

  void RecordError(std::size_t index, Status status) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (index < error_index.load(std::memory_order_relaxed)) {
      error_index.store(index, std::memory_order_relaxed);
      first_error = std::move(status);
    }
  }

  // Runs one index with exception containment.
  void RunIndex(std::size_t i) {
    Status s;
    try {
      s = (*fn)(i);
    } catch (const std::exception& e) {
      s = Status::Internal(std::string("worker exception: ") + e.what());
    } catch (...) {
      s = Status::Internal("worker exception of unknown type");
    }
    if (!s.ok()) RecordError(i, std::move(s));
  }

  // Claims and executes chunks until none are left. Both the submitter
  // and the workers drive this — the serial path is literally this
  // function on one thread.
  void RunChunks() {
    for (;;) {
      const std::size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      const std::size_t lo = begin + c * grain;
      const std::size_t hi = std::min(end, lo + grain);
      // Skip work strictly above an already-recorded error; indices
      // below it always run so the LOWEST error is found exactly.
      if (error_index.load(std::memory_order_relaxed) >= lo) {
        for (std::size_t i = lo; i < hi; ++i) {
          if (error_index.load(std::memory_order_relaxed) < i) break;
          RunIndex(i);
        }
      }
      FinishChunk();
    }
  }

  void FinishChunk() {
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(done_mu);
      done_cv.notify_all();
    }
  }

  void WaitDone() {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock,
                 [&] { return remaining.load(std::memory_order_acquire) == 0; });
  }
};

// The lazily-initialized fixed pool. Worker count follows
// ParallelThreads() - 1 (the submitting thread is the extra worker);
// resizes happen between loops, never under one.
class ThreadPool {
 public:
  static ThreadPool& Instance() {
    static ThreadPool pool;
    return pool;
  }

  Status Run(std::size_t begin, std::size_t end,
             const std::function<Status(std::size_t)>& fn, std::size_t grain) {
    if (begin >= end) return Status::OK();
    if (grain == 0) grain = 1;

    // shared_ptr, not a stack object: a worker that selected this job
    // may still hold a reference after the submitter has seen
    // completion and returned.
    auto job = std::make_shared<Job>();
    job->begin = begin;
    job->end = end;
    job->grain = grain;
    job->num_chunks = (end - begin + grain - 1) / grain;
    job->fn = &fn;
    job->remaining.store(job->num_chunks, std::memory_order_relaxed);

    const std::size_t threads = ParallelThreads();
    const bool serial = t_in_worker || threads <= 1 || job->num_chunks <= 1;
    if (!serial) {
      EnsureWorkers(threads - 1);
      Submit(job);
    }
    job->RunChunks();  // the submitter always participates
    if (!serial) {
      job->WaitDone();
      Retire(job.get());
    }
    if (job->error_index.load(std::memory_order_relaxed) != Job::kNoError) {
      return job->first_error;
    }
    return Status::OK();
  }

 private:
  ThreadPool() = default;

  ~ThreadPool() { StopAll(); }

  void Submit(std::shared_ptr<Job> job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      jobs_.push_back(std::move(job));
      ++inflight_;
    }
    cv_.notify_all();
  }

  void Retire(Job* job) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
      if (it->get() == job) {
        jobs_.erase(it);
        break;
      }
    }
    --inflight_;
  }

  void EnsureWorkers(std::size_t desired) {
    std::unique_lock<std::mutex> lock(mu_);
    if (workers_.size() == desired) return;
    // Only resize between loops; a concurrent submitter keeps the
    // current size and the resize lands on a later call.
    if (inflight_ != 0) return;
    StopAllLocked(lock);
    stop_ = false;
    workers_.reserve(desired);
    for (std::size_t i = 0; i < desired; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  void StopAll() {
    std::unique_lock<std::mutex> lock(mu_);
    StopAllLocked(lock);
  }

  // Precondition: `lock` holds mu_. Re-acquires it before returning.
  void StopAllLocked(std::unique_lock<std::mutex>& lock) {
    stop_ = true;
    lock.unlock();
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
    workers_.clear();
    lock.lock();
  }

  void WorkerLoop() {
    t_in_worker = true;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || !jobs_.empty(); });
        if (stop_) return;
        // Claim from the oldest job that still has unclaimed chunks;
        // fully-claimed jobs stay queued until their submitter retires
        // them (other workers may still be executing their chunks).
        for (const std::shared_ptr<Job>& candidate : jobs_) {
          if (candidate->next_chunk.load(std::memory_order_relaxed) <
              candidate->num_chunks) {
            job = candidate;
            break;
          }
        }
        if (job == nullptr) {
          // Nothing claimable right now; avoid a busy spin by waiting
          // for the queue to change.
          cv_.wait_for(lock, std::chrono::milliseconds(1));
          continue;
        }
      }
      job->RunChunks();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::thread> workers_;
  std::deque<std::shared_ptr<Job>> jobs_;
  std::size_t inflight_ = 0;
  bool stop_ = false;
};

}  // namespace

std::size_t ParallelThreads() {
  const std::size_t override_count =
      g_thread_override.load(std::memory_order_relaxed);
  if (override_count > 0) return override_count;
  const std::size_t env = EnvThreads();
  if (env > 0) return env;
  return HardwareThreads();
}

void SetParallelThreads(std::size_t n) {
  g_thread_override.store(n, std::memory_order_relaxed);
}

Result<std::size_t> ParseThreadCount(std::string_view text) {
  std::size_t n = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, n);
  if (ec == std::errc::invalid_argument || ptr != end) {
    return Status::InvalidArgument("bad thread count '" + std::string(text) +
                                   "' (want digits only)");
  }
  if (ec == std::errc::result_out_of_range || n > kMaxParallelThreads) {
    return Status::InvalidArgument(
        "thread count '" + std::string(text) +
        "' exceeds kMaxParallelThreads = " +
        std::to_string(kMaxParallelThreads));
  }
  return n;
}

Status ParallelFor(std::size_t begin, std::size_t end,
                   const std::function<Status(std::size_t)>& fn,
                   std::size_t grain) {
  return ThreadPool::Instance().Run(begin, end, fn, grain);
}

}  // namespace tsad
