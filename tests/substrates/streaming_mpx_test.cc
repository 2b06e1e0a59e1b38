#include "substrates/streaming_mpx.h"

#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "common/parallel.h"
#include "common/rng.h"
#include "common/series.h"
#include "common/wire.h"
#include "datasets/gait.h"
#include "datasets/nasa.h"
#include "datasets/numenta.h"
#include "datasets/omni.h"
#include "datasets/physio.h"
#include "datasets/yahoo.h"
#include "profile_equivalence.h"

namespace tsad {
namespace {

using testing::ExpectStreamingMpxEquivalence;

class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(ParallelThreads()) {}
  ~ThreadCountGuard() { SetParallelThreads(saved_); }

 private:
  std::size_t saved_;
};

std::vector<std::size_t> ThreadCountsToTest() {
  std::vector<std::size_t> counts = {1, 2};
  const std::size_t hw = std::thread::hardware_concurrency();
  if (hw > 2) counts.push_back(hw);
  return counts;
}

Series RandomWalk(std::size_t n, uint64_t seed) {
  Rng rng(seed);
  Series x(n);
  double level = 0.0;
  for (double& v : x) {
    level += rng.Gaussian();
    v = level;
  }
  return x;
}

Series Truncated(const Series& x, std::size_t n) {
  return Series(x.begin(),
                x.begin() + static_cast<std::ptrdiff_t>(std::min(n, x.size())));
}

TEST(StreamingMpxTest, ValidateRejectsDegenerateConfigs) {
  StreamingMpxConfig config;
  config.m = 1;
  EXPECT_FALSE(StreamingMpx::Validate(config).ok());

  config = {};
  config.m = 64;
  config.buffer_cap = 255;  // < 4m
  EXPECT_FALSE(StreamingMpx::Validate(config).ok());

  // 4m = 2^64 wraps to 0 in a size_t; the check must not.
  config = {};
  config.m = std::size_t{1} << 62;
  config.buffer_cap = 64;
  const Status wrapped = StreamingMpx::Validate(config);
  EXPECT_EQ(wrapped.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wrapped.message().find("4*m = 18446744073709551616"),
            std::string::npos)
      << wrapped.message();

  config = {};
  config.m = 16;
  config.buffer_cap = 64;
  config.exclusion = 40;  // post-prune window keeps 48 points -> 33 subs
  EXPECT_FALSE(StreamingMpx::Validate(config).ok());

  config = {};
  config.m = 16;
  config.buffer_cap = 128;
  config.band = 8;  // <= default exclusion m/2 = 8
  EXPECT_FALSE(StreamingMpx::Validate(config).ok());

  config = {};
  config.m = 16;
  config.buffer_cap = 64;
  EXPECT_TRUE(StreamingMpx::Validate(config).ok());

  // A bounded buffer is reserved whole at construction, so one whose
  // reservation would pass kMaxStreamingMpxBytes is refused up front:
  // 2^40 points would reserve about 96 TiB.
  config = {};
  config.m = 16;
  config.buffer_cap = std::size_t{1} << 40;
  const Status huge = StreamingMpx::Validate(config);
  EXPECT_EQ(huge.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(huge.message().find("kMaxStreamingMpxBytes limit of 1073741824"),
            std::string::npos)
      << huge.message();
  // The bound saturates instead of wrapping to a small number.
  config.buffer_cap = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(StreamingMpx::MemoryBytesBound(config),
            std::numeric_limits<std::size_t>::max());
  const Status saturated = StreamingMpx::Validate(config);
  EXPECT_EQ(saturated.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(saturated.message().find("more than"), std::string::npos)
      << saturated.message();
  // A million points (about 96 MiB) is within the limit; sixteen
  // million (about 1.5 GiB) is not.
  config.buffer_cap = std::size_t{1} << 20;
  EXPECT_LE(StreamingMpx::MemoryBytesBound(config), kMaxStreamingMpxBytes);
  EXPECT_TRUE(StreamingMpx::Validate(config).ok());
  config.buffer_cap = std::size_t{1} << 24;
  EXPECT_GT(StreamingMpx::MemoryBytesBound(config), kMaxStreamingMpxBytes);
  EXPECT_FALSE(StreamingMpx::Validate(config).ok());

  // buffer_cap = 0 is the no-eviction mode: any exclusion is fine (the
  // first entries simply have no neighbor yet), the other rules hold.
  config = {};
  config.m = 16;
  config.buffer_cap = 0;
  EXPECT_TRUE(StreamingMpx::Validate(config).ok());
  config.exclusion = 40;
  EXPECT_TRUE(StreamingMpx::Validate(config).ok());
  config.band = 8;
  EXPECT_FALSE(StreamingMpx::Validate(config).ok());
  config = {};
  config.m = 1;
  config.buffer_cap = 0;
  EXPECT_FALSE(StreamingMpx::Validate(config).ok());
}

// The acceptance bound of the subsystem: a 4096-point ring buffer must
// hold MemoryBytes() CONSTANT over >= 100k observed points — the
// serving engine's per-stream budget depends on the footprint never
// growing after construction.
TEST(StreamingMpxTest, MemoryBytesConstantOver100kPoints) {
  StreamingMpxConfig config;
  config.m = 64;
  config.buffer_cap = 4096;
  StreamingMpx kernel(config);
  const std::size_t at_construction = kernel.MemoryBytes();
  EXPECT_EQ(at_construction, StreamingMpx::MemoryBytesBound(config));

  Rng rng(7);
  double level = 0.0;
  for (std::size_t t = 0; t < 100'500; ++t) {
    level += rng.Gaussian();
    kernel.Push(level);
    if (t % 4096 == 0 || t == 100'499) {
      ASSERT_EQ(kernel.MemoryBytes(), at_construction)
          << "footprint moved at point " << t << " (evictions="
          << kernel.evictions() << ")";
    }
  }
  EXPECT_GE(kernel.points_seen(), 100'000u);
  EXPECT_GT(kernel.evictions(), 90u);
  EXPECT_LE(kernel.retained_points(), config.buffer_cap);
}

TEST(StreamingMpxTest, MemoryBytesBoundMatchesWithBand) {
  StreamingMpxConfig config;
  config.m = 32;
  config.buffer_cap = 1024;
  config.band = 200;
  StreamingMpx kernel(config);
  EXPECT_EQ(kernel.MemoryBytes(), StreamingMpx::MemoryBytesBound(config));
  for (std::size_t t = 0; t < 5000; ++t) {
    kernel.Push(std::sin(static_cast<double>(t) * 0.1));
  }
  EXPECT_EQ(kernel.MemoryBytes(), StreamingMpx::MemoryBytesBound(config));
}

TEST(StreamingMpxTest, MergedMatchesBatchMpxWithoutEviction) {
  ThreadCountGuard guard;
  Series x = RandomWalk(1500, 42);
  // Flat runs exercise the SCAMP special cases through the streaming
  // flat list: distance-0 pairs across runs and sqrt(2m) entries.
  for (std::size_t i = 200; i < 280; ++i) x[i] = 7.5;
  for (std::size_t i = 900; i < 1000; ++i) x[i] = 1.0e6;
  for (const std::size_t m : {16u, 32u}) {
    for (const std::size_t threads : ThreadCountsToTest()) {
      SetParallelThreads(threads);
      EXPECT_TRUE(ExpectStreamingMpxEquivalence(x, m, 2048))
          << "m=" << m << " threads=" << threads;
    }
  }
}

TEST(StreamingMpxTest, RightProfileMatchesSuffixReferenceAfterEviction) {
  Series x = RandomWalk(3000, 43);
  for (std::size_t i = 2400; i < 2460; ++i) x[i] = -4.0;  // flat in suffix
  // cap 1024 -> evictions at 1024, 1792, 2560: the retained suffix has
  // been through three prunes when the comparison runs.
  EXPECT_TRUE(ExpectStreamingMpxEquivalence(x, 32, 1024));
}

TEST(StreamingMpxTest, SuffixEquivalenceOnEverySimulatorFamily) {
  ThreadCountGuard guard;
  struct Family {
    const char* name;
    Series values;
    std::size_t m;
  };
  std::vector<Family> families;
  {
    YahooConfig config;
    config.a1_count = 1;
    config.a2_count = 1;
    config.a3_count = 1;
    config.a4_count = 1;
    const YahooArchive yahoo = GenerateYahooArchive(config);
    families.push_back({"yahoo_a1", yahoo.a1.series.at(0).values(), 24});
    families.push_back({"yahoo_a4", yahoo.a4.series.at(0).values(), 24});
  }
  families.push_back(
      {"numenta_taxi", Truncated(GenerateTaxiData().series.values(), 3000),
       48});
  families.push_back(
      {"nasa", Truncated(GenerateNasaArchive().channels.series.at(0).values(),
                         3000),
       64});
  {
    OmniConfig config;
    config.num_machines = 1;
    const OmniArchive omni = GenerateOmniArchive(config);
    const Result<LabeledSeries> dim = omni.machines.at(0).Dimension(0);
    ASSERT_TRUE(dim.ok());
    families.push_back({"omni", Truncated(dim->values(), 3000), 64});
  }
  families.push_back(
      {"physio_ecg", Truncated(GenerateEcgWithPvc().values(), 3000), 64});
  families.push_back(
      {"gait", Truncated(GenerateGaitData().series.values(), 3000), 128});

  // The ring is sized to force at least one eviction on every family;
  // the batch/reference side of the harness runs at 1, 2 and hardware
  // thread counts (the streaming kernel itself is single-threaded by
  // design — one stream, one shard).
  for (const Family& family : families) {
    const std::size_t cap = 1024;
    ASSERT_GT(family.values.size(), cap) << family.name;
    for (const std::size_t threads : ThreadCountsToTest()) {
      SetParallelThreads(threads);
      EXPECT_TRUE(ExpectStreamingMpxEquivalence(family.values, family.m, cap))
          << family.name << " threads=" << threads;
    }
  }
}

TEST(StreamingMpxTest, BandConstrainsNeighborsToTheBand) {
  StreamingMpxConfig config;
  config.m = 16;
  config.buffer_cap = 512;
  config.band = 64;
  StreamingMpx kernel(config);
  Rng rng(5);
  for (std::size_t t = 0; t < 2000; ++t) {
    kernel.Push(std::sin(static_cast<double>(t) * 0.2) + 0.1 * rng.Gaussian());
  }
  const std::size_t first = kernel.first_subsequence();
  std::size_t checked = 0;
  for (std::size_t i = 0; i < kernel.num_subsequences(); ++i) {
    const StreamingMpx::Entry entry = kernel.Right(i);
    if (entry.neighbor == kNoNeighbor) continue;
    const std::size_t gap = entry.neighbor - (first + i);
    EXPECT_GT(gap, kernel.config().exclusion) << "entry " << i;
    EXPECT_LE(gap, config.band) << "entry " << i;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(StreamingMpxTest, ChangeLogReportsEveryRightNeighbourChange) {
  // Noise with flat runs, blocks of 1e200-scale noise (windows whose
  // variance overflows a double: inv == 0 without a listed flat), with
  // and without a band, across evictions. A NaN poisons the running
  // window totals for good, so it comes last. After every push the log must hold
  // exactly the entries whose Right() neighbour changed, each with its
  // previous neighbour, and every new neighbour is the newest
  // subsequence.
  Rng rng(17);
  Series x(3000);
  for (std::size_t t = 0; t < x.size(); ++t) {
    const std::size_t phase = (t / 90) % 5;
    x[t] = phase == 1 ? 1e200 * rng.Gaussian()
                      : phase == 2 ? 2.5 : rng.Gaussian();
    if (t == 2900) x[t] = std::nan("");
  }
  for (const std::size_t band : {std::size_t{0}, std::size_t{40}}) {
    StreamingMpxConfig config;
    config.m = 8;
    config.buffer_cap = 256;
    config.band = band;
    StreamingMpx kernel(config);
    std::vector<std::size_t> before;
    std::size_t changes = 0;
    std::size_t overflowed_variance_changes = 0;
    for (std::size_t t = 0; t < x.size(); ++t) {
      const std::size_t old_first = kernel.first_subsequence();
      before.clear();
      for (std::size_t i = 0; i < kernel.num_subsequences(); ++i) {
        before.push_back(kernel.Right(i).neighbor);
      }
      RightChangeLog log;
      kernel.Push(x[t], &log);
      ASSERT_FALSE(log.overflowed()) << "t=" << t;
      const std::size_t first = kernel.first_subsequence();
      const std::size_t newest = first + kernel.num_subsequences() - 1;
      std::vector<std::size_t> want(kernel.num_subsequences(), kNoNeighbor);
      std::vector<bool> changed(kernel.num_subsequences(), false);
      for (std::size_t i = 0; i < kernel.num_subsequences(); ++i) {
        const std::size_t nn = kernel.Right(i).neighbor;
        ASSERT_EQ(kernel.RightNeighbor(i), nn) << "t=" << t << " i=" << i;
        const std::size_t global = first + i;
        if (global - old_first >= before.size()) continue;  // new entry
        const std::size_t previous = before[global - old_first];
        if (nn != previous) {
          ASSERT_EQ(nn, newest) << "t=" << t << " i=" << i;
          changed[i] = true;
          want[i] = previous;
        }
      }
      for (std::size_t c = 0; c < log.size; ++c) {
        const RightChangeLog::Change change = log.entries[c];
        ASSERT_LT(change.local, changed.size()) << "t=" << t;
        ASSERT_TRUE(changed[change.local])
            << "t=" << t << " logged an unchanged entry " << change.local;
        EXPECT_EQ(change.previous, want[change.local]) << "t=" << t;
        changed[change.local] = false;  // a second record would fail above
        ++changes;
        if (std::isinf(kernel.StdAt(change.local))) {
          ++overflowed_variance_changes;
        }
      }
      for (std::size_t i = 0; i < changed.size(); ++i) {
        ASSERT_FALSE(changed[i]) << "t=" << t << " missed entry " << i;
      }
    }
    EXPECT_GT(kernel.evictions(), 0u);
    EXPECT_GT(changes, x.size() / 2) << "band=" << band;
    EXPECT_GT(overflowed_variance_changes, 0u) << "band=" << band;
  }
}

TEST(StreamingMpxTest, CountRightArcsMatchesRight) {
  Series x = RandomWalk(900, 5);
  for (std::size_t t = 300; t < 420; ++t) x[t] = 1.0;
  StreamingMpxConfig config;
  config.m = 12;
  config.buffer_cap = 512;
  StreamingMpx kernel(config);
  for (const double v : x) kernel.Push(v);
  ASSERT_GT(kernel.evictions(), 0u);
  const std::size_t first = kernel.first_subsequence();
  const std::size_t ring = config.m + 1;
  for (const std::size_t p : {std::size_t{1}, std::size_t{100},
                              kernel.num_subsequences() - 1 - config.m}) {
    std::size_t want = 0;
    std::vector<std::size_t> want_ends(ring, 0);
    for (std::size_t i = 0; i < kernel.num_subsequences(); ++i) {
      const std::size_t nn = kernel.Right(i).neighbor;
      if (nn == kNoNeighbor || nn - first <= p) continue;
      if (i < p) ++want;
      ++want_ends[nn % ring];
    }
    std::vector<std::size_t> ends(ring, 0);
    EXPECT_EQ(kernel.CountRightArcs(p, ends.data(), ring), want) << "p=" << p;
    EXPECT_EQ(ends, want_ends) << "p=" << p;
  }
}

TEST(StreamingMpxTest, SerializeRestoreContinuesBitIdentically) {
  StreamingMpxConfig config;
  config.m = 16;
  config.buffer_cap = 64;  // chunk 16: evictions at 64, 80, 96, ...
  const Series x = RandomWalk(400, 44);

  StreamingMpx uninterrupted(config);
  for (const double v : x) uninterrupted.Push(v);

  // Cut at an eviction boundary (the hard case: the snapshot carries a
  // freshly pruned diagonal frontier) and mid-buffer.
  for (const std::size_t cut : {64u, 70u, 96u, 200u}) {
    StreamingMpx writer_kernel(config);
    for (std::size_t t = 0; t < cut; ++t) writer_kernel.Push(x[t]);
    ByteWriter writer;
    writer_kernel.Serialize(&writer);

    StreamingMpx restored(config);
    ByteReader reader(writer.str());
    ASSERT_TRUE(restored.Deserialize(&reader).ok()) << "cut=" << cut;
    for (std::size_t t = cut; t < x.size(); ++t) restored.Push(x[t]);

    ASSERT_EQ(restored.num_subsequences(), uninterrupted.num_subsequences());
    ASSERT_EQ(restored.first_subsequence(), uninterrupted.first_subsequence());
    for (std::size_t i = 0; i < restored.num_subsequences(); ++i) {
      const StreamingMpx::Entry a = restored.Merged(i);
      const StreamingMpx::Entry b = uninterrupted.Merged(i);
      // Bitwise: the restore contract is "the same bytes", so EXPECT_EQ
      // on the doubles, not EXPECT_NEAR.
      ASSERT_EQ(a.distance, b.distance) << "cut=" << cut << " entry " << i;
      ASSERT_EQ(a.neighbor, b.neighbor) << "cut=" << cut << " entry " << i;
    }
    ASSERT_EQ(restored.MemoryBytes(), uninterrupted.MemoryBytes())
        << "restored kernel lost the constant-footprint reserve";
  }
}

TEST(StreamingMpxTest, DeserializeRejectsMismatchedConfig) {
  StreamingMpxConfig config;
  config.m = 16;
  config.buffer_cap = 64;
  StreamingMpx kernel(config);
  for (std::size_t t = 0; t < 100; ++t) {
    kernel.Push(static_cast<double>(t % 7));
  }
  ByteWriter writer;
  kernel.Serialize(&writer);

  StreamingMpxConfig other = config;
  other.buffer_cap = 128;
  StreamingMpx wrong(other);
  ByteReader reader(writer.str());
  const Status status = wrong.Deserialize(&reader);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("mismatch"), std::string::npos);
}

TEST(StreamingMpxTest, DeserializeRejectsInflatedIndexCountWithoutThrowing) {
  StreamingMpxConfig config;
  config.m = 16;
  config.buffer_cap = 64;
  StreamingMpx kernel(config);
  for (std::size_t t = 0; t < 10; ++t) {  // fewer than m: no subsequences
    kernel.Push(static_cast<double>(t));
  }
  ByteWriter writer;
  kernel.Serialize(&writer);
  // The blob ends with the counts of its three (empty) index vectors;
  // inflate the first past anything the blob could hold.
  std::string blob = writer.str();
  ASSERT_EQ(blob.substr(blob.size() - 24), std::string(24, '\0'));
  ByteWriter huge;
  huge.PutU64(std::uint64_t{1} << 62);
  blob.replace(blob.size() - 24, 8, huge.str());

  StreamingMpx restored(config);
  ByteReader reader(blob);
  Status status = Status::OK();
  EXPECT_NO_THROW(status = restored.Deserialize(&reader));
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
}

// ---------------------------------------------------------------------------
// The left side without eviction (buffer_cap = 0): the causal profile
// streaming discord scores from.

StreamingMpxConfig Unbounded(std::size_t m) {
  StreamingMpxConfig config;
  config.m = m;
  config.buffer_cap = 0;
  return config;
}

TEST(StreamingMpxLeftTest, EmitsNothingUntilFirstWindowCompletes) {
  StreamingMpx kernel(Unbounded(8));
  for (std::size_t i = 0; i < 7; ++i) {
    kernel.Push(static_cast<double>(i));
    EXPECT_EQ(kernel.num_subsequences(), 0u);
  }
  kernel.Push(7.0);
  ASSERT_EQ(kernel.num_subsequences(), 1u);
  const StreamingMpx::Entry entry = kernel.Left(0);
  EXPECT_FALSE(std::isfinite(entry.distance));  // no past neighbor yet
  EXPECT_EQ(entry.neighbor, kNoNeighbor);
}

TEST(StreamingMpxLeftTest, FirstExclusionPlusOneEntriesHaveNoNeighbor) {
  const Series x = RandomWalk(300, 11);
  StreamingMpx kernel(Unbounded(20));
  for (const double v : x) kernel.Push(v);
  const std::size_t exclusion = kernel.config().exclusion;
  ASSERT_EQ(exclusion, 10u);
  for (std::size_t i = 0; i <= exclusion; ++i) {
    EXPECT_FALSE(std::isfinite(kernel.Left(i).distance)) << "i=" << i;
    EXPECT_EQ(kernel.Left(i).neighbor, kNoNeighbor) << "i=" << i;
  }
  EXPECT_TRUE(std::isfinite(kernel.Left(exclusion + 1).distance));
  EXPECT_EQ(kernel.Left(exclusion + 1).neighbor, 0u);
}

TEST(StreamingMpxLeftTest, FlatRegionsUseScampConvention) {
  // A dynamic prelude, then a flat run: the run's first window has only
  // dynamic history (sqrt(2m)); once a flat window is past the
  // exclusion zone, later flat windows sit at 0 from the LOWEST one.
  Series x;
  for (int i = 0; i < 40; ++i) x.push_back(std::sin(0.7 * i));
  for (int i = 0; i < 40; ++i) x.push_back(1.0);
  const std::size_t m = 8;
  StreamingMpx kernel(Unbounded(m));
  for (const double v : x) kernel.Push(v);
  const std::size_t exclusion = kernel.config().exclusion;
  const std::size_t first_flat = 40;
  ASSERT_TRUE(kernel.IsFlatAt(first_flat));
  EXPECT_EQ(kernel.Left(first_flat).distance,
            std::sqrt(2.0 * static_cast<double>(m)));
  for (std::size_t i = first_flat + exclusion + 1; i < kernel.num_subsequences();
       ++i) {
    EXPECT_EQ(kernel.Left(i).distance, 0.0) << "i=" << i;
    EXPECT_EQ(kernel.Left(i).neighbor, first_flat) << "i=" << i;
  }
  // A dynamic window is scored against its dynamic neighbors: positive
  // and finite.
  const std::size_t dynamic = first_flat - m;
  ASSERT_FALSE(kernel.IsFlatAt(dynamic));
  EXPECT_TRUE(std::isfinite(kernel.Left(dynamic).distance));
  EXPECT_GT(kernel.Left(dynamic).distance, 0.0);
}

TEST(StreamingMpxLeftTest, AgreesWithBatchLeftProfile) {
  // The harness checks Left() against ComputeLeftMatrixProfile (and
  // Merged() against ComputeMatrixProfile) under the tolerance
  // contract; flat runs cover the SCAMP entries exactly.
  Series x = RandomWalk(1500, 12);
  for (std::size_t i = 200; i < 280; ++i) x[i] = 7.5;
  for (std::size_t i = 900; i < 1000; ++i) x[i] = 1.0e6;
  for (const std::size_t m : {16u, 24u}) {
    EXPECT_TRUE(ExpectStreamingMpxEquivalence(x, m, 0)) << "m=" << m;
  }
}

TEST(StreamingMpxLeftTest, LeftIsDeterministicGivenPrefix) {
  // Causal by construction: the left entry finalized at time t cannot
  // depend on later pushes. Feed two kernels different suffixes and
  // compare their common prefix bitwise.
  const Series x = RandomWalk(300, 13);
  StreamingMpx a(Unbounded(16)), b(Unbounded(16));
  for (std::size_t i = 0; i < 200; ++i) {
    a.Push(x[i]);
    b.Push(x[i]);
  }
  const std::size_t prefix = a.num_subsequences();
  for (std::size_t i = 200; i < 300; ++i) {
    a.Push(x[i]);
    b.Push(-x[i]);  // divergent future
  }
  for (std::size_t i = 0; i < prefix; ++i) {
    EXPECT_EQ(a.Left(i).distance, b.Left(i).distance) << "i=" << i;
    EXPECT_EQ(a.Left(i).neighbor, b.Left(i).neighbor) << "i=" << i;
  }
}

TEST(StreamingMpxLeftTest, SerializeRestoreContinuesBitIdentically) {
  const Series x = RandomWalk(400, 14);
  const StreamingMpxConfig config = Unbounded(20);
  StreamingMpx uninterrupted(config);
  for (const double v : x) uninterrupted.Push(v);

  // Cut before the first window completes, right at it, and mid-stream.
  for (const std::size_t cut : {5u, 20u, 200u, 399u}) {
    StreamingMpx first(config);
    for (std::size_t t = 0; t < cut; ++t) first.Push(x[t]);
    ByteWriter writer;
    first.Serialize(&writer);
    StreamingMpx second(config);
    ByteReader reader(writer.str());
    ASSERT_TRUE(second.Deserialize(&reader).ok()) << "cut=" << cut;
    ASSERT_TRUE(reader.ExpectDone().ok()) << "cut=" << cut;
    for (std::size_t t = cut; t < x.size(); ++t) second.Push(x[t]);

    ASSERT_EQ(second.num_subsequences(), uninterrupted.num_subsequences());
    for (std::size_t i = 0; i < second.num_subsequences(); ++i) {
      const StreamingMpx::Entry a = second.Left(i);
      const StreamingMpx::Entry b = uninterrupted.Left(i);
      ASSERT_EQ(a.distance, b.distance) << "cut=" << cut << " entry " << i;
      ASSERT_EQ(a.neighbor, b.neighbor) << "cut=" << cut << " entry " << i;
    }
  }
}

TEST(StreamingMpxLeftTest, DeserializeRejectsMismatchedGeometry) {
  StreamingMpx kernel(Unbounded(16));
  for (int i = 0; i < 50; ++i) kernel.Push(static_cast<double>(i % 7));
  ByteWriter writer;
  kernel.Serialize(&writer);

  StreamingMpx wrong_m(Unbounded(32));
  ByteReader reader(writer.str());
  EXPECT_EQ(wrong_m.Deserialize(&reader).code(), StatusCode::kInvalidArgument);

  StreamingMpxConfig exclusion3 = Unbounded(16);
  exclusion3.exclusion = 3;
  StreamingMpx wrong_exclusion(exclusion3);
  ByteReader reader2(writer.str());
  EXPECT_EQ(wrong_exclusion.Deserialize(&reader2).code(),
            StatusCode::kInvalidArgument);

  StreamingMpxConfig bounded = Unbounded(16);
  bounded.buffer_cap = 64;
  StreamingMpx wrong_buffer(bounded);
  ByteReader reader3(writer.str());
  EXPECT_EQ(wrong_buffer.Deserialize(&reader3).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tsad
