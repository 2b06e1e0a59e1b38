// Pins every bit of the simulators' default outputs: an FNV-1a hash
// over each value's IEEE-754 bits, each label region and the training
// prefix. The printed goldens show 3-4 digits or %.9g, so a one-ulp
// change to a generated value is visible only here.

#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#include "datasets/gait.h"
#include "datasets/nasa.h"
#include "datasets/omni.h"
#include "datasets/physio.h"
#include "datasets/yahoo.h"

namespace tsad {
namespace {

class Fingerprint {
 public:
  void Add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }
  void Add(const Series& values) {
    Add(values.size());
    for (double v : values) {
      std::uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      Add(bits);
    }
  }
  void Add(const std::vector<AnomalyRegion>& regions, std::size_t train) {
    Add(regions.size());
    for (const AnomalyRegion& r : regions) {
      Add(r.begin);
      Add(r.end);
    }
    Add(train);
  }
  void Add(const LabeledSeries& s) {
    Add(s.values());
    Add(s.anomalies(), s.train_length());
  }
  void Add(const BenchmarkDataset& d) {
    Add(d.series.size());
    for (const LabeledSeries& s : d.series) Add(s);
  }

  std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

TEST(DatasetFingerprintTest, YahooArchive) {
  const YahooArchive archive = GenerateYahooArchive();
  Fingerprint f;
  for (const BenchmarkDataset* d : archive.all()) f.Add(*d);
  EXPECT_EQ(f.hash(), 5522509027968150089ull);
}

TEST(DatasetFingerprintTest, NasaArchive) {
  Fingerprint f;
  f.Add(GenerateNasaArchive().channels);
  EXPECT_EQ(f.hash(), 16962719900562517996ull);
}

TEST(DatasetFingerprintTest, OmniArchive) {
  const OmniArchive archive = GenerateOmniArchive();
  Fingerprint f;
  f.Add(archive.machines.size());
  for (const MultivariateSeries& m : archive.machines) {
    f.Add(m.dimensions().size());
    for (const Series& dim : m.dimensions()) f.Add(dim);
    f.Add(m.anomalies(), m.train_length());
  }
  EXPECT_EQ(f.hash(), 13063152856035107345ull);
}

TEST(DatasetFingerprintTest, EcgWithPvc) {
  Fingerprint f;
  f.Add(GenerateEcgWithPvc());
  EXPECT_EQ(f.hash(), 13941209810266938783ull);
}

TEST(DatasetFingerprintTest, BidmcPair) {
  const EcgPlethPair pair = GenerateBidmcPair();
  Fingerprint f;
  f.Add(pair.pleth);
  f.Add(pair.ecg);
  EXPECT_EQ(f.hash(), 1187904719935181936ull);
}

TEST(DatasetFingerprintTest, GaitData) {
  Fingerprint f;
  f.Add(GenerateGaitData().series);
  EXPECT_EQ(f.hash(), 6200343052432815270ull);
}

}  // namespace
}  // namespace tsad
