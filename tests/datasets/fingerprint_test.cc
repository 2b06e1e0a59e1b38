// Pins every bit of the simulators' default outputs: an FNV-1a hash
// over each value's IEEE-754 bits, each label region and the training
// prefix. The printed goldens show 3-4 digits or %.9g, so a one-ulp
// change to a generated value is visible only here. The Yahoo pins also
// cover the series names, the per-series kinds and the planted defects,
// at 1 and at 4 threads.

#include <cstdint>
#include <cstring>
#include <string_view>

#include <gtest/gtest.h>

#include "common/parallel.h"
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
  void Add(std::string_view text) {
    Add(text.size());
    for (char c : text) {
      hash_ ^= static_cast<unsigned char>(c);
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

// Everything GenerateYahooArchive returns: the four datasets with each
// series' name, the four kind vectors and every planted defect.
std::uint64_t YahooFingerprint(const YahooArchive& archive) {
  Fingerprint f;
  for (const BenchmarkDataset* d : archive.all()) {
    f.Add(*d);
    for (const LabeledSeries& s : d->series) f.Add(s.name());
  }
  for (const std::vector<YahooSeriesKind>* kinds :
       {&archive.a1_kinds, &archive.a2_kinds, &archive.a3_kinds,
        &archive.a4_kinds}) {
    f.Add(kinds->size());
    for (YahooSeriesKind kind : *kinds) {
      f.Add(static_cast<std::uint64_t>(kind));
    }
  }
  f.Add(archive.planted_defects.size());
  for (const PlantedDefect& defect : archive.planted_defects) {
    f.Add(defect.series_name);
    f.Add(defect.kind);
    f.Add(defect.position);
  }
  return f.hash();
}

// Generates the archive serially and at 4 threads, expecting `hash`
// from both, then puts the thread count back.
void ExpectYahooFingerprint(const YahooConfig& config, std::uint64_t hash) {
  const std::size_t saved = ParallelThreads();
  for (std::size_t threads : {1, 4}) {
    SetParallelThreads(threads);
    EXPECT_EQ(YahooFingerprint(GenerateYahooArchive(config)), hash)
        << "threads = " << threads;
  }
  SetParallelThreads(saved);
}

TEST(DatasetFingerprintTest, YahooArchive) {
  ExpectYahooFingerprint(YahooConfig{}, 2159050281623013482ull);
}

// A shrunk archive of 20 + 8 + 8 + 8 series: A1 keeps only the
// Real13/Real15 duplicate pair of the specials, and the sets' sizes
// differ, so the filing pass splits the job results unevenly.
TEST(DatasetFingerprintTest, ShrunkYahooArchive) {
  YahooConfig config;
  config.seed = 7;
  config.a1_count = 20;
  config.a2_count = 8;
  config.a3_count = 8;
  config.a4_count = 8;
  ExpectYahooFingerprint(config, 7241401606021116026ull);
  const YahooArchive archive = GenerateYahooArchive(config);
  EXPECT_EQ(archive.a1_kinds[12], YahooSeriesKind::kMislabelSpecial);
  EXPECT_EQ(archive.a1_kinds[14], YahooSeriesKind::kMislabelSpecial);
  ASSERT_EQ(archive.planted_defects.size(), 1u);
  EXPECT_EQ(archive.planted_defects[0].series_name, "A1-Real15");
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
