#include "datasets/domains.h"

#include <cmath>
#include <ostream>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "core/ucr_archive.h"

namespace tsad {
namespace {

using DomainGenerator = Series (*)(std::size_t, Rng&);

struct DomainCase {
  const char* name;
  DomainGenerator make;
};

// Without this gtest prints the raw bytes of the two pointers, so the
// registered ctest names would change with every build's load address.
void PrintTo(const DomainCase& c, std::ostream* os) { *os << c.name; }

class DomainSignalTest : public ::testing::TestWithParam<DomainCase> {};

TEST_P(DomainSignalTest, ProducesFiniteNonConstantSignalOfRequestedLength) {
  Rng rng(7);
  const Series x = GetParam().make(5000, rng);
  ASSERT_EQ(x.size(), 5000u);
  for (double v : x) ASSERT_TRUE(std::isfinite(v));
  EXPECT_GT(StdDev(x), 1e-6) << GetParam().name;
}

TEST_P(DomainSignalTest, DeterministicPerSeed) {
  Rng a(11), b(11), c(12);
  EXPECT_EQ(GetParam().make(2000, a), GetParam().make(2000, b));
  Rng a2(11);
  EXPECT_NE(GetParam().make(2000, a2), GetParam().make(2000, c));
}

TEST_P(DomainSignalTest, UsableAsUcrBase) {
  Rng rng(13);
  Series base = GetParam().make(6000, rng);
  Result<LabeledSeries> made = MakeUcrDataset(
      GetParam().name, std::move(base), 2000, UcrInjection::kSpike, rng);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  EXPECT_TRUE(ValidateUcrDataset(*made).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Domains, DomainSignalTest,
    ::testing::Values(DomainCase{"insect", &InsectWingbeat},
                      DomainCase{"robot", &RobotJointTelemetry},
                      DomainCase{"industrial", &IndustrialProcessValue},
                      DomainCase{"pedestrian", &PedestrianCounts},
                      DomainCase{"spacecraft", &SpacecraftTelemetry}),
    [](const ::testing::TestParamInfo<DomainCase>& info) {
      return info.param.name;
    });

TEST(InsectWingbeatTest, HasTheCarrierPeriodicity) {
  Rng rng(1);
  const Series x = InsectWingbeat(4000, rng);
  double best = 0.0;
  for (std::size_t lag = 20; lag <= 30; ++lag) {
    best = std::max(best, Autocorrelation(x, lag));
  }
  EXPECT_GT(best, 0.6);
}

TEST(PedestrianCountsTest, NonNegativeWithDailyStructure) {
  Rng rng(2);
  const Series x = PedestrianCounts(24 * 28, rng);
  for (double v : x) EXPECT_GE(v, 0.0);
  EXPECT_GT(Autocorrelation(x, 24), 0.5);   // daily
  EXPECT_GT(Autocorrelation(x, 24 * 7), 0.5);  // weekly
}

TEST(RobotJointTest, DwellsNearZeroAndReach) {
  Rng rng(3);
  const Series x = RobotJointTelemetry(4000, rng);
  EXPECT_NEAR(Min(x), 0.0, 0.1);
  EXPECT_NEAR(Max(x), 1.0, 0.15);
}

TEST(BuildFullArchiveTest, SpansDomainsAndValidates) {
  const UcrArchive archive = BuildFullArchive();
  EXPECT_GE(archive.datasets.size(), 25u);
  std::size_t domain_datasets = 0;
  for (const LabeledSeries& s : archive.datasets) {
    EXPECT_TRUE(ValidateUcrDataset(s).ok()) << s.name();
    if (s.name().find("insect") != std::string::npos ||
        s.name().find("robot") != std::string::npos ||
        s.name().find("pedestrian") != std::string::npos ||
        s.name().find("sat_bus") != std::string::npos ||
        s.name().find("historian") != std::string::npos) {
      ++domain_datasets;
    }
  }
  EXPECT_GE(domain_datasets, 20u);
}

TEST(BuildFullArchiveTest, ContainsADifficultySpectrum) {
  const UcrArchive archive = BuildFullArchive();
  std::size_t trivial = 0, non_trivial = 0;
  for (const LabeledSeries& s : archive.datasets) {
    if (RateDifficulty(s) == UcrDifficulty::kTrivial) {
      ++trivial;
    } else {
      ++non_trivial;
    }
  }
  // §3: "a spectrum of problems ranging from easy to very hard" with
  // only "a small fraction ... solvable with a one-liner".
  EXPECT_GE(trivial, 1u);
  EXPECT_GE(non_trivial, 8u);
}

}  // namespace
}  // namespace tsad
