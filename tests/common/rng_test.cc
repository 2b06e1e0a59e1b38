#include "common/rng.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/stats.h"

namespace tsad {
namespace {

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool differ = false;
  for (int i = 0; i < 10; ++i) {
    if (a.NextUint64() != b.NextUint64()) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntInclusiveAndCoversRange) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(2, 6);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all of {2,3,4,5,6} observed
}

TEST(RngTest, GaussianMomentsAreSane) {
  Rng rng(13);
  std::vector<double> samples(50000);
  for (double& v : samples) v = rng.Gaussian(2.0, 3.0);
  EXPECT_NEAR(Mean(samples), 2.0, 0.1);
  EXPECT_NEAR(StdDev(samples), 3.0, 0.1);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / 20000.0, 0.3, 0.02);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(19);
  std::vector<double> samples(20000);
  for (double& v : samples) v = rng.Exponential(0.5);  // mean 2
  EXPECT_NEAR(Mean(samples), 2.0, 0.1);
  for (double v : samples) EXPECT_GE(v, 0.0);
}

TEST(RngTest, PoissonMeanMatches) {
  Rng rng(23);
  std::vector<double> small(20000), large(5000);
  for (double& v : small) v = static_cast<double>(rng.Poisson(3.0));
  for (double& v : large) v = static_cast<double>(rng.Poisson(200.0));
  EXPECT_NEAR(Mean(small), 3.0, 0.1);
  EXPECT_NEAR(Mean(large), 200.0, 2.0);
  EXPECT_EQ(rng.Poisson(0.0), 0u);
}

TEST(RngTest, ForkIsIndependentOfParentDrawOrder) {
  // Forking the same stream id from generators in different states
  // must yield identical child generators.
  Rng a(99), b(99);
  b.NextUint64();
  b.NextUint64();  // advance b
  Rng child_a = a.Fork(5);
  Rng child_b = b.Fork(5);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(child_a.NextUint64(), child_b.NextUint64());
  }
}

TEST(RngTest, ForkStreamsAreDistinct) {
  Rng rng(99);
  Rng c1 = rng.Fork(1);
  Rng c2 = rng.Fork(2);
  bool differ = false;
  for (int i = 0; i < 10; ++i) {
    if (c1.NextUint64() != c2.NextUint64()) differ = true;
  }
  EXPECT_TRUE(differ);
}

}  // namespace
}  // namespace tsad
