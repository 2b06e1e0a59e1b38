#include "common/parallel.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/triviality.h"
#include "datasets/generators.h"
#include "substrates/matrix_profile.h"

namespace tsad {
namespace {

// Forces a thread count for the duration of a test block and restores
// normal resolution (env / hardware) on exit.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(std::size_t n) { SetParallelThreads(n); }
  ~ThreadCountGuard() { SetParallelThreads(0); }
};

// The thread counts every determinism test must agree across: serial,
// a small fixed pool, and whatever the machine reports.
std::vector<std::size_t> TestThreadCounts() {
  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return {1, 2, hw};
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool BitIdentical(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
    ThreadCountGuard guard(threads);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    for (auto& h : hits) h.store(0);
    const Status s = ParallelFor(0, kN, [&](std::size_t i) -> Status {
      hits[i].fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    });
    ASSERT_TRUE(s.ok()) << s.ToString();
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ParallelForTest, RespectsBeginOffsetAndGrain) {
  ThreadCountGuard guard(4);
  std::vector<std::atomic<int>> hits(20);
  for (auto& h : hits) h.store(0);
  const Status s = ParallelFor(
      5, 17,
      [&](std::size_t i) -> Status {
        hits[i].fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      },
      /*grain=*/3);
  ASSERT_TRUE(s.ok());
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), (i >= 5 && i < 17) ? 1 : 0) << "i=" << i;
  }
}

TEST(ParallelForTest, EmptyRangeIsOk) {
  ThreadCountGuard guard(4);
  bool ran = false;
  const Status s = ParallelFor(10, 10, [&](std::size_t) -> Status {
    ran = true;
    return Status::OK();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_FALSE(ran);
}

TEST(ParallelMapTest, PlacesResultsByIndexNotCompletionOrder) {
  ThreadCountGuard guard(4);
  constexpr std::size_t kN = 64;
  const Result<std::vector<std::size_t>> out = ParallelMap<std::size_t>(
      kN, [](std::size_t i) -> Result<std::size_t> {
        // Early indices take longest: completion order is roughly the
        // reverse of index order under a real pool.
        if (i < 4) std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return i * i;
      });
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), kN);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ((*out)[i], i * i);
}

// A worker returning an error Status must surface the LOWEST failing
// index's Status — even when a higher index fails first in wall time —
// and must never deadlock the pool.
TEST(ParallelForTest, LowestIndexErrorWinsAndLowerIndicesStillRun) {
  for (std::size_t threads : TestThreadCounts()) {
    ThreadCountGuard guard(threads);
    constexpr std::size_t kN = 100;
    std::vector<std::atomic<int>> ran(kN);
    for (auto& r : ran) r.store(0);
    const Status s = ParallelFor(0, kN, [&](std::size_t i) -> Status {
      ran[i].fetch_add(1, std::memory_order_relaxed);
      if (i == 40) {
        // Make the low-index failure slow so a high-index failure is
        // recorded first under parallel execution.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        return Status::InvalidArgument("fail at 40");
      }
      if (i == 90) return Status::Internal("fail at 90");
      return Status::OK();
    });
    ASSERT_FALSE(s.ok()) << "threads=" << threads;
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << "threads=" << threads;
    EXPECT_EQ(s.message(), "fail at 40") << "threads=" << threads;
    // Indices below the winning error are always attempted.
    for (std::size_t i = 0; i < 40; ++i) {
      EXPECT_EQ(ran[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ParallelForTest, ThrowingWorkerSurfacesAsInternalStatus) {
  for (std::size_t threads : TestThreadCounts()) {
    ThreadCountGuard guard(threads);
    const Status s = ParallelFor(0, 50, [](std::size_t i) -> Status {
      if (i == 7) throw std::runtime_error("boom at 7");
      return Status::OK();
    });
    ASSERT_FALSE(s.ok()) << "threads=" << threads;
    EXPECT_EQ(s.code(), StatusCode::kInternal) << "threads=" << threads;
    EXPECT_NE(s.message().find("boom at 7"), std::string::npos)
        << "threads=" << threads << " got: " << s.message();
  }
}

// The pool must stay usable after an error or an exception: containment
// means the NEXT loop runs normally.
TEST(ParallelForTest, PoolSurvivesErrorsAndExceptions) {
  ThreadCountGuard guard(4);
  (void)ParallelFor(0, 20, [](std::size_t i) -> Status {
    if (i % 3 == 0) throw std::runtime_error("x");
    return Status::InvalidArgument("y");
  });
  std::atomic<int> count{0};
  const Status s = ParallelFor(0, 100, [&](std::size_t) -> Status {
    count.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(count.load(), 100);
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  ThreadCountGuard guard(4);
  std::atomic<int> total{0};
  const Status s = ParallelFor(0, 8, [&](std::size_t) -> Status {
    return ParallelFor(0, 16, [&](std::size_t) -> Status {
      total.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    });
  });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ParallelThreadsTest, OverrideWinsAndClearRestoresDefault) {
  const std::size_t resolved = ParallelThreads();
  EXPECT_GE(resolved, 1u);
  SetParallelThreads(3);
  EXPECT_EQ(ParallelThreads(), 3u);
  SetParallelThreads(0);
  EXPECT_EQ(ParallelThreads(), resolved);
}

TEST(ParseThreadCountTest, AcceptsDigitsUpToTheLimit) {
  EXPECT_EQ(ParseThreadCount("0").value_or(99), 0u);
  EXPECT_EQ(ParseThreadCount("4").value_or(99), 4u);
  EXPECT_EQ(ParseThreadCount("0004").value_or(99), 4u);
  EXPECT_EQ(ParseThreadCount(std::to_string(kMaxParallelThreads)).value_or(0),
            kMaxParallelThreads);
}

TEST(ParseThreadCountTest, RefusesSignsJunkOverflowAndTheLimitPlusOne) {
  for (const std::string& text : std::vector<std::string>{
           "-1", "+4", " 4", "4 ", "4x", "x4", "", "1e3", "0x10",
           "18446744073709551616", std::to_string(kMaxParallelThreads + 1)}) {
    const Result<std::size_t> n = ParseThreadCount(text);
    ASSERT_FALSE(n.ok()) << "'" << text << "'";
    EXPECT_EQ(n.status().code(), StatusCode::kInvalidArgument) << text;
  }
  // Past the limit, the message names it.
  const Status over =
      ParseThreadCount(std::to_string(kMaxParallelThreads + 1)).status();
  EXPECT_NE(over.message().find("kMaxParallelThreads = 1024"),
            std::string::npos)
      << over.message();
  const Status overflow = ParseThreadCount("18446744073709551616").status();
  EXPECT_NE(overflow.message().find("kMaxParallelThreads"), std::string::npos)
      << overflow.message();
}

// ---------------------------------------------------------------------
// End-to-end determinism: the two heaviest adopters of the parallel
// layer must produce identical output at every thread count.
// ---------------------------------------------------------------------

// 650 to 905 points: several OneLinerMarginCache::kBlock window
// blocks, so a search fills and reuses blocks across its candidates.
LabeledSeries MakeSpikeSeries(uint64_t seed, double spike) {
  Rng rng(seed);
  Series x = GaussianNoise(650 + seed % 256, 1.0, rng);
  const AnomalyRegion r = InjectSpike(x, 400, spike);
  return LabeledSeries("spike", std::move(x), {r});
}

void ExpectReportsIdentical(const TrivialityReport& a,
                            const TrivialityReport& b,
                            std::size_t threads) {
  ASSERT_EQ(a.total, b.total) << "threads=" << threads;
  ASSERT_EQ(a.solved, b.solved) << "threads=" << threads;
  ASSERT_EQ(a.datasets.size(), b.datasets.size()) << "threads=" << threads;
  for (std::size_t d = 0; d < a.datasets.size(); ++d) {
    EXPECT_EQ(a.datasets[d].dataset_name, b.datasets[d].dataset_name);
    EXPECT_EQ(a.datasets[d].total, b.datasets[d].total);
    EXPECT_EQ(a.datasets[d].solved, b.datasets[d].solved);
    EXPECT_EQ(a.datasets[d].solved_by_form, b.datasets[d].solved_by_form);
  }
  ASSERT_EQ(a.series.size(), b.series.size()) << "threads=" << threads;
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].series_name, b.series[i].series_name);
    EXPECT_EQ(a.series[i].solution.solved, b.series[i].solution.solved)
        << "threads=" << threads << " series=" << i;
    EXPECT_TRUE(BitIdentical(a.series[i].solution.headroom,
                             b.series[i].solution.headroom))
        << "threads=" << threads << " series=" << i;
    if (a.series[i].solution.solved && b.series[i].solution.solved) {
      EXPECT_EQ(a.series[i].solution.params.ToMatlab(),
                b.series[i].solution.params.ToMatlab())
          << "threads=" << threads << " series=" << i;
    }
  }
}

// 750 series make 12 pool tasks of up to 64 (the last one partial), so
// at 2 and 4 threads every worker runs several tasks, each with its own
// search state reused across series of different lengths.
TEST(ParallelDeterminismTest, AnalyzeTrivialityIdenticalAcrossThreadCounts) {
  BenchmarkDataset mixed;
  mixed.name = "mixed";
  for (uint64_t i = 0; i < 250; ++i) {
    mixed.series.push_back(MakeSpikeSeries(300 + i, 18.0));
    mixed.series.push_back(MakeSpikeSeries(700 + i, 0.5));
  }
  BenchmarkDataset easy;
  easy.name = "easy";
  for (uint64_t i = 0; i < 250; ++i) {
    easy.series.push_back(MakeSpikeSeries(1100 + i, 25.0));
  }
  const std::vector<const BenchmarkDataset*> datasets = {&mixed, &easy};

  TrivialityReport baseline;
  {
    ThreadCountGuard guard(1);
    baseline = AnalyzeTriviality(datasets);
  }
  ASSERT_EQ(baseline.total, 750u);
  for (std::size_t threads : TestThreadCounts()) {
    ThreadCountGuard guard(threads);
    const TrivialityReport report = AnalyzeTriviality(datasets);
    ExpectReportsIdentical(baseline, report, threads);
  }
}

TEST(ParallelDeterminismTest, MatrixProfileBitIdenticalAcrossThreadCounts) {
  Rng rng(77);
  // Long enough to span several 256-row STOMP blocks.
  std::vector<double> series(2000);
  for (std::size_t i = 0; i < series.size(); ++i) {
    series[i] = rng.Gaussian() + 0.001 * static_cast<double>(i);
  }
  const std::size_t m = 64;

  MatrixProfile baseline;
  {
    ThreadCountGuard guard(1);
    Result<MatrixProfile> r = ComputeMatrixProfile(series, m);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    baseline = std::move(*r);
  }
  for (std::size_t threads : TestThreadCounts()) {
    ThreadCountGuard guard(threads);
    Result<MatrixProfile> r = ComputeMatrixProfile(series, m);
    ASSERT_TRUE(r.ok()) << "threads=" << threads;
    EXPECT_TRUE(BitIdentical(baseline.distances, r->distances))
        << "threads=" << threads;
    EXPECT_EQ(baseline.indices, r->indices) << "threads=" << threads;
  }
}

TEST(ParallelDeterminismTest, AbJoinBitIdenticalAcrossThreadCounts) {
  Rng rng(78);
  std::vector<double> query(900), reference(1100);
  for (double& v : query) v = rng.Gaussian();
  for (double& v : reference) v = rng.Gaussian();

  MatrixProfile baseline;
  {
    ThreadCountGuard guard(1);
    Result<MatrixProfile> r = ComputeAbJoin(query, reference, 48);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    baseline = std::move(*r);
  }
  for (std::size_t threads : TestThreadCounts()) {
    ThreadCountGuard guard(threads);
    Result<MatrixProfile> r = ComputeAbJoin(query, reference, 48);
    ASSERT_TRUE(r.ok()) << "threads=" << threads;
    EXPECT_TRUE(BitIdentical(baseline.distances, r->distances))
        << "threads=" << threads;
    EXPECT_EQ(baseline.indices, r->indices) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace tsad
