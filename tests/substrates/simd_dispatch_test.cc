// SIMD-dispatch certification (`ctest -L simd`): every ISA tier the
// host supports must produce, at every thread count,
//
//  * batch MPX joins: bit-identical profiles across tiers — the variant
//    TUs compile with -ffp-contract=off and keep each lane's operation
//    chain in the scalar order, so vectorization changes WHICH lanes
//    run together, never what any lane computes;
//  * streaming MPX: bit-identical ring state and profiles across
//    tiers, before and after eviction;
//  * MerlinSweep: bit-identical discords across tiers;
//  * one FNV-1a constant per kernel (self-join, AB-join, left profile,
//    MerlinSweep, StreamingMpx, DistanceProfile) that pins every output
//    bit across commits, at every tier and at 1 and 4 threads.
//
// The scalar tier is the anchor: it runs on every host, so CI machines
// without AVX still execute every assertion here (the per-tier loops
// just collapse to one tier).

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "common/cpu_features.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/series.h"
#include "detectors/merlin.h"
#include "profile_equivalence.h"
#include "substrates/matrix_profile.h"
#include "substrates/streaming_mpx.h"

namespace tsad {
namespace {

using testing::ExpectProfileEquivalence;

// Restores auto-detection and the entry thread count on scope exit so
// a forced tier cannot leak into later tests. The suite runs without
// TSAD_MP_ISA, so clearing the override IS the original state.
class DispatchGuard {
 public:
  DispatchGuard() : threads_(ParallelThreads()) {}
  ~DispatchGuard() {
    ClearSimdTierOverride();
    SetParallelThreads(threads_);
  }

 private:
  std::size_t threads_;
};

std::vector<SimdTier> SupportedTiers() {
  std::vector<SimdTier> tiers;
  for (int t = 0; t <= static_cast<int>(DetectSimdTier()); ++t) {
    tiers.push_back(static_cast<SimdTier>(t));
  }
  return tiers;
}

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

// A walk with exact flat runs (one at an extreme level), so the forced
// tiers also exercise the inv == 0 lanes and the SCAMP special cases.
Series WalkWithFlats(std::size_t n, uint64_t seed) {
  Series x = RandomWalk(n, seed);
  for (std::size_t i = n / 4; i < n / 4 + 60; ++i) x[i] = 7.5;
  for (std::size_t i = n / 2; i < n / 2 + 80; ++i) x[i] = 1.0e6;
  return x;
}

Series WhiteNoise(std::size_t n, uint64_t seed) {
  Rng rng(seed);
  Series x(n);
  for (double& v : x) v = rng.Gaussian();
  return x;
}

TEST(SimdDispatchTest, EveryTierMeetsTheEquivalenceContract) {
  DispatchGuard guard;
  // The kernel suite's certified adversarial construction (level-shift
  // flats inside an O(1) walk, m = 16) — the tolerance budget is for
  // the ACCUMULATION-ORDER gap between MPX and the oracle, and
  // cross-tier bit-identity (below) guarantees the forced tiers add
  // nothing to it, so the contract must hold tier for tier.
  Series x = RandomWalk(1500, 42);
  for (std::size_t i = 200; i < 280; ++i) x[i] = 7.5;
  for (std::size_t i = 900; i < 1000; ++i) x[i] = 1.0e6;
  const Result<MatrixProfile> oracle = testing::ComputeMatrixProfileNaive(x, 16);
  ASSERT_TRUE(oracle.ok());
  for (const SimdTier tier : SupportedTiers()) {
    ASSERT_TRUE(SetSimdTierOverride(tier).ok()) << SimdTierName(tier);
    for (const std::size_t threads : ThreadCountsToTest()) {
      SetParallelThreads(threads);
      EXPECT_TRUE(ExpectProfileEquivalence(x, 16, *oracle))
          << SimdTierName(tier) << " threads=" << threads;
    }
  }
}

TEST(SimdDispatchTest, ExactTierIsBitIdenticalAcrossIsaTiers) {
  DispatchGuard guard;
  const Series x = WalkWithFlats(3000, 61);
  const std::size_t m = 32;
  ASSERT_TRUE(SetSimdTierOverride(SimdTier::kScalar).ok());
  SetParallelThreads(1);
  const Result<MatrixProfile> anchor = ComputeMatrixProfile(x, m);
  ASSERT_TRUE(anchor.ok());
  for (const SimdTier tier : SupportedTiers()) {
    ASSERT_TRUE(SetSimdTierOverride(tier).ok()) << SimdTierName(tier);
    for (const std::size_t threads : ThreadCountsToTest()) {
      SetParallelThreads(threads);
      const Result<MatrixProfile> forced = ComputeMatrixProfile(x, m);
      ASSERT_TRUE(forced.ok());
      EXPECT_EQ(forced->distances, anchor->distances)
          << SimdTierName(tier) << " threads=" << threads;
      EXPECT_EQ(forced->indices, anchor->indices)
          << SimdTierName(tier) << " threads=" << threads;
    }
  }
}

TEST(SimdDispatchTest, AbJoinIsBitIdenticalAcrossIsaTiers) {
  DispatchGuard guard;
  // Flats on BOTH sides so the forced tiers cross the inv == 0 lanes of
  // the one-sided strip updates in each sweep direction.
  const Series query = WalkWithFlats(1600, 65);
  const Series reference = WalkWithFlats(2000, 66);
  const std::size_t m = 32;
  ASSERT_TRUE(SetSimdTierOverride(SimdTier::kScalar).ok());
  SetParallelThreads(1);
  const Result<MatrixProfile> anchor = ComputeAbJoin(query, reference, m);
  ASSERT_TRUE(anchor.ok());
  for (const SimdTier tier : SupportedTiers()) {
    ASSERT_TRUE(SetSimdTierOverride(tier).ok()) << SimdTierName(tier);
    for (const std::size_t threads : ThreadCountsToTest()) {
      SetParallelThreads(threads);
      const Result<MatrixProfile> forced = ComputeAbJoin(query, reference,
                                                            m);
      ASSERT_TRUE(forced.ok());
      EXPECT_EQ(forced->distances, anchor->distances)
          << SimdTierName(tier) << " threads=" << threads;
      EXPECT_EQ(forced->indices, anchor->indices)
          << SimdTierName(tier) << " threads=" << threads;
    }
  }
}

TEST(SimdDispatchTest, LeftProfileIsBitIdenticalAcrossIsaTiers) {
  DispatchGuard guard;
  const Series x = WalkWithFlats(2600, 67);
  const std::size_t m = 32;
  ASSERT_TRUE(SetSimdTierOverride(SimdTier::kScalar).ok());
  SetParallelThreads(1);
  const Result<MatrixProfile> anchor = ComputeLeftMatrixProfile(x, m);
  ASSERT_TRUE(anchor.ok());
  for (const SimdTier tier : SupportedTiers()) {
    ASSERT_TRUE(SetSimdTierOverride(tier).ok()) << SimdTierName(tier);
    for (const std::size_t threads : ThreadCountsToTest()) {
      SetParallelThreads(threads);
      const Result<MatrixProfile> forced = ComputeLeftMatrixProfile(x, m);
      ASSERT_TRUE(forced.ok());
      EXPECT_EQ(forced->distances, anchor->distances)
          << SimdTierName(tier) << " threads=" << threads;
      EXPECT_EQ(forced->indices, anchor->indices)
          << SimdTierName(tier) << " threads=" << threads;
    }
  }
}

TEST(SimdDispatchTest, StreamingMpxIsBitIdenticalAcrossIsaTiers) {
  DispatchGuard guard;
  // Capacity forces eviction midway, so both the no-eviction merge and
  // the post-eviction right profile cross the dispatched lag kernel.
  const Series x = WalkWithFlats(2400, 64);
  StreamingMpxConfig config;
  config.m = 32;
  config.buffer_cap = 1200;
  ASSERT_TRUE(StreamingMpx::Validate(config).ok());

  struct Snapshot {
    std::vector<double> merged_d, right_d, left_d;
    std::vector<std::size_t> merged_j, right_j, left_j;
    std::size_t evictions = 0;
  };
  const auto run = [&] {
    StreamingMpx kernel(config);
    for (const double v : x) kernel.Push(v);
    Snapshot snap;
    snap.evictions = kernel.evictions();
    for (std::size_t i = 0; i < kernel.num_subsequences(); ++i) {
      const StreamingMpx::Entry merged = kernel.Merged(i);
      const StreamingMpx::Entry right = kernel.Right(i);
      const StreamingMpx::Entry left = kernel.Left(i);
      snap.merged_d.push_back(merged.distance);
      snap.merged_j.push_back(merged.neighbor);
      snap.right_d.push_back(right.distance);
      snap.right_j.push_back(right.neighbor);
      snap.left_d.push_back(left.distance);
      snap.left_j.push_back(left.neighbor);
    }
    return snap;
  };

  ASSERT_TRUE(SetSimdTierOverride(SimdTier::kScalar).ok());
  const Snapshot anchor = run();
  EXPECT_GT(anchor.evictions, 0u);  // the eviction path really ran
  for (const SimdTier tier : SupportedTiers()) {
    ASSERT_TRUE(SetSimdTierOverride(tier).ok()) << SimdTierName(tier);
    const Snapshot forced = run();
    EXPECT_EQ(forced.evictions, anchor.evictions) << SimdTierName(tier);
    EXPECT_EQ(forced.merged_d, anchor.merged_d) << SimdTierName(tier);
    EXPECT_EQ(forced.merged_j, anchor.merged_j) << SimdTierName(tier);
    EXPECT_EQ(forced.right_d, anchor.right_d) << SimdTierName(tier);
    EXPECT_EQ(forced.right_j, anchor.right_j) << SimdTierName(tier);
    EXPECT_EQ(forced.left_d, anchor.left_d) << SimdTierName(tier);
    EXPECT_EQ(forced.left_j, anchor.left_j) << SimdTierName(tier);
  }
}

TEST(SimdDispatchTest, PanDiscordSweepIsBitIdenticalAcrossIsaTiers) {
  DispatchGuard guard;
  // Exercises both dispatched kernels MerlinSweep runs: the MPX
  // self-join that seeds (and refreshes) the nearest-neighbour
  // candidates and the centered-covariance refinement rows
  // (pan_cov_row). White noise defeats the carried candidates, so its
  // refinement runs many batches and takes the refresh path.
  const Series walk = WalkWithFlats(2200, 71);
  const Series noise = WhiteNoise(2048, 72);
  for (const Series* x : {&walk, &noise}) {
    const auto run = [&] { return MerlinSweep(*x, 24, 48); };
    ASSERT_TRUE(SetSimdTierOverride(SimdTier::kScalar).ok());
    SetParallelThreads(1);
    const Result<std::vector<LengthDiscord>> anchor = run();
    ASSERT_TRUE(anchor.ok());
    for (const SimdTier tier : SupportedTiers()) {
      ASSERT_TRUE(SetSimdTierOverride(tier).ok()) << SimdTierName(tier);
      for (const std::size_t threads : ThreadCountsToTest()) {
        SetParallelThreads(threads);
        const Result<std::vector<LengthDiscord>> forced = run();
        ASSERT_TRUE(forced.ok());
        ASSERT_EQ(forced->size(), anchor->size())
            << SimdTierName(tier) << " threads=" << threads;
        for (std::size_t i = 0; i < anchor->size(); ++i) {
          EXPECT_EQ((*forced)[i].length, (*anchor)[i].length);
          EXPECT_EQ((*forced)[i].position, (*anchor)[i].position)
              << SimdTierName(tier) << " threads=" << threads
              << " length=" << (*anchor)[i].length;
          EXPECT_EQ((*forced)[i].distance, (*anchor)[i].distance)
              << SimdTierName(tier) << " threads=" << threads
              << " length=" << (*anchor)[i].length;
        }
      }
    }
  }
}

// FNV-1a 64 over 64-bit words, as DatasetFingerprintTest hashes the
// simulators' outputs: one constant pins every bit of a kernel's
// output across commits, where the tests above compare tiers within
// one build and the oracle tests allow a tolerance.
class OutputPin {
 public:
  void Add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }
  void Add(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  void Add(const MatrixProfile& p) {
    Add(std::uint64_t{p.size()});
    for (const double d : p.distances) Add(d);
    for (const std::size_t j : p.indices) Add(std::uint64_t{j});
  }
  void Add(const StreamingMpx::Entry& e) {
    Add(e.distance);
    Add(std::uint64_t{e.neighbor});
  }

  std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

// Expects `pin()` to hash to `want` at every supported tier, at 1 and
// at 4 threads.
template <typename Pin>
void ExpectPinnedAtEveryTier(std::uint64_t want, const Pin& pin) {
  DispatchGuard guard;
  for (const SimdTier tier : SupportedTiers()) {
    ASSERT_TRUE(SetSimdTierOverride(tier).ok()) << SimdTierName(tier);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SetParallelThreads(threads);
      EXPECT_EQ(pin(), want) << SimdTierName(tier) << " threads=" << threads;
    }
  }
}

// Self-joins at m = 8, 32 and 64, so the 8- and 16-diagonal vector
// groups are left partial at different diagonals: flat runs at 7.5 and
// 1e6; 9,000 points, which span several 1,024-offset row blocks; and
// one NaN, pinned with the diagonals it poisons today (confining a
// non-finite value to the windows that hold it will change this hash
// on purpose).
TEST(SimdDispatchTest, SelfJoinOutputBitsArePinned) {
  const Series flats = WalkWithFlats(3000, 61);
  const Series long_walk = RandomWalk(9000, 62);
  const Series with_nan = [] {
    Series x = RandomWalk(1500, 63);
    x[700] = std::numeric_limits<double>::quiet_NaN();
    return x;
  }();
  ExpectPinnedAtEveryTier(12819557451099571772ull, [&] {
    OutputPin pin;
    for (const Series* x : {&flats, &long_walk, &with_nan}) {
      for (const std::size_t m : {8, 32, 64}) {
        const Result<MatrixProfile> p = ComputeMatrixProfile(*x, m);
        EXPECT_TRUE(p.ok());
        if (p.ok()) pin.Add(*p);
      }
    }
    return pin.hash();
  });
}

TEST(SimdDispatchTest, AbJoinOutputBitsArePinned) {
  const Series query = WalkWithFlats(1600, 65);
  const Series reference = WalkWithFlats(2000, 66);
  ExpectPinnedAtEveryTier(4668796363772531439ull, [&] {
    OutputPin pin;
    for (const auto& [a, b] : {std::pair{&query, &reference},
                               std::pair{&reference, &query}}) {
      const Result<MatrixProfile> p = ComputeAbJoin(*a, *b, 32);
      EXPECT_TRUE(p.ok());
      if (p.ok()) pin.Add(*p);
    }
    return pin.hash();
  });
}

TEST(SimdDispatchTest, LeftProfileOutputBitsArePinned) {
  const Series x = WalkWithFlats(2600, 67);
  ExpectPinnedAtEveryTier(3368824722681084134ull, [&] {
    OutputPin pin;
    const Result<MatrixProfile> p = ComputeLeftMatrixProfile(x, 32);
    EXPECT_TRUE(p.ok());
    if (p.ok()) pin.Add(*p);
    return pin.hash();
  });
}

TEST(SimdDispatchTest, MerlinSweepOutputBitsArePinned) {
  const Series x = WalkWithFlats(2200, 71);
  ExpectPinnedAtEveryTier(18003949686137492815ull, [&] {
    OutputPin pin;
    const Result<std::vector<LengthDiscord>> rows = MerlinSweep(x, 24, 48);
    EXPECT_TRUE(rows.ok());
    if (!rows.ok()) return pin.hash();
    for (const LengthDiscord& row : *rows) {
      pin.Add(std::uint64_t{row.length});
      pin.Add(std::uint64_t{row.position});
      pin.Add(row.distance);
      pin.Add(row.normalized);
    }
    return pin.hash();
  });
}

TEST(SimdDispatchTest, StreamingMpxOutputBitsArePinned) {
  const Series x = WalkWithFlats(2400, 64);
  StreamingMpxConfig config;
  config.m = 32;
  config.buffer_cap = 1024;
  ASSERT_TRUE(StreamingMpx::Validate(config).ok());
  ExpectPinnedAtEveryTier(13785099729774847719ull, [&] {
    StreamingMpx kernel(config);
    for (const double v : x) kernel.Push(v);
    EXPECT_GT(kernel.evictions(), 0u);
    OutputPin pin;
    pin.Add(std::uint64_t{kernel.evictions()});
    pin.Add(std::uint64_t{kernel.first_subsequence()});
    pin.Add(std::uint64_t{kernel.num_subsequences()});
    for (std::size_t i = 0; i < kernel.num_subsequences(); ++i) {
      pin.Add(kernel.Left(i));
      pin.Add(kernel.Right(i));
    }
    return pin.hash();
  });
}

// Distance profiles at m = 8, 32 and 64 from a dynamic window, windows
// starting in the 7.5 and the 1e6 flat runs, and the last window.
TEST(SimdDispatchTest, DistanceProfileOutputBitsArePinned) {
  const Series x = WalkWithFlats(3000, 68);
  ExpectPinnedAtEveryTier(9185849966612231682ull, [&] {
    OutputPin pin;
    for (const std::size_t m : {8, 32, 64}) {
      for (const std::size_t pos : {std::size_t{333}, std::size_t{752},
                                    std::size_t{1505}, x.size() - m}) {
        const Result<std::vector<double>> p = DistanceProfile(x, pos, m);
        EXPECT_TRUE(p.ok());
        if (!p.ok()) continue;
        pin.Add(std::uint64_t{p->size()});
        for (const double d : *p) pin.Add(d);
      }
    }
    return pin.hash();
  });
}

TEST(SimdDispatchTest, ActiveTierDefaultsToDetection) {
  DispatchGuard guard;
  ClearSimdTierOverride();
  EXPECT_EQ(ActiveSimdTier(), DetectSimdTier());
}

}  // namespace
}  // namespace tsad
