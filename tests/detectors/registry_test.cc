#include "detectors/registry.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datasets/generators.h"
#include "robustness/resilient.h"

namespace tsad {
namespace {

TEST(RegistryTest, EveryRegisteredNameConstructsWithDefaults) {
  for (const std::string& name : RegisteredDetectorNames()) {
    Result<std::unique_ptr<AnomalyDetector>> detector = MakeDetector(name);
    ASSERT_TRUE(detector.ok()) << name << ": "
                               << detector.status().ToString();
    EXPECT_FALSE((*detector)->name().empty());
  }
}

TEST(RegistryTest, ParametersAreApplied) {
  Result<std::unique_ptr<AnomalyDetector>> d = MakeDetector("discord:m=77");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(std::string((*d)->name()), "Discord[m=77]");

  Result<std::unique_ptr<AnomalyDetector>> z = MakeDetector("zscore:w=33");
  ASSERT_TRUE(z.ok());
  EXPECT_EQ(std::string((*z)->name()), "MovingZScore[w=33]");

  Result<std::unique_ptr<AnomalyDetector>> m =
      MakeDetector("merlin:min=32,max=48");
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(std::string((*m)->name()), "MERLIN[32..48]");
}

TEST(RegistryTest, MerlinPositionalSpecIsRefused) {
  // merlin has one grammar, key=value: the positional form is a
  // malformed parameter list.
  const Status s = MakeDetector("merlin:64:192").status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();

  // Bare name keeps the registry defaults.
  Result<std::unique_ptr<AnomalyDetector>> bare = MakeDetector("merlin");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(std::string((*bare)->name()), "MERLIN[48..96]");
}

TEST(RegistryTest, MerlinPositionalSpecErrorsEnumerateGrammar) {
  // Every positional spec, well-formed or not, is refused with the
  // key=value grammar named.
  for (const char* spec :
       {"merlin:32:48", "merlin:48", "merlin:48:96:128", "merlin:abc:96",
        "merlin:48:xyz", "merlin::96"}) {
    const Status s = MakeDetector(spec).status();
    ASSERT_FALSE(s.ok()) << spec;
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << spec;
    EXPECT_NE(s.message().find("want key=value"), std::string::npos)
        << spec << ": " << s.message();
  }
}

TEST(RegistryTest, MerlinTypoGetsDidYouMean) {
  const Status s = MakeDetector("merlon:min=32,max=48").status();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_NE(s.message().find("did you mean 'merlin'?"), std::string::npos)
      << s.message();
  // Only floss advertises a positional grammar beside the flat names.
  EXPECT_NE(s.message().find("floss:<window>[:<buffer>]"), std::string::npos)
      << s.message();
  EXPECT_EQ(s.message().find("merlin:<"), std::string::npos) << s.message();
}

TEST(RegistryTest, UnknownNameIsNotFound) {
  Result<std::unique_ptr<AnomalyDetector>> d = MakeDetector("lstm");
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kNotFound);
  // The message lists the registry itself, so a newly registered
  // detector shows up without anyone editing the error text.
  for (const std::string& name : RegisteredDetectorNames()) {
    EXPECT_NE(d.status().message().find(" " + name), std::string::npos)
        << name << " missing from: " << d.status().message();
  }
}

TEST(RegistryTest, UnknownNameSuggestsNearestRegisteredName) {
  // One transposition away from a registered name: the NotFound message
  // carries a "did you mean" hint.
  Result<std::unique_ptr<AnomalyDetector>> d = MakeDetector("zscoer");
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kNotFound);
  EXPECT_NE(d.status().message().find("did you mean 'zscore'?"),
            std::string::npos)
      << d.status().message();

  // A dropped letter and a wrong letter still resolve.
  EXPECT_NE(MakeDetector("cusm").status().message().find("'cusum'"),
            std::string::npos);
  EXPECT_NE(MakeDetector("streeming").status().message().find("'streaming'"),
            std::string::npos);

  // Nothing plausibly close: no hint, plain NotFound.
  const Status far = MakeDetector("lstm-autoencoder").status();
  EXPECT_EQ(far.code(), StatusCode::kNotFound);
  EXPECT_EQ(far.message().find("did you mean"), std::string::npos)
      << far.message();
}

TEST(RegistryTest, UnknownParameterRejected) {
  Result<std::unique_ptr<AnomalyDetector>> d =
      MakeDetector("discord:window=5");
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
}

TEST(RegistryTest, MalformedSpecsRejected) {
  EXPECT_FALSE(MakeDetector("").ok());
  EXPECT_FALSE(MakeDetector("discord:m").ok());
  EXPECT_FALSE(MakeDetector("discord:m=abc").ok());
  EXPECT_FALSE(MakeDetector("discord:=5").ok());
  // Negative, out-of-range and fractional sizes and non-finite values
  // are refused, naming the key, rather than cast into a window.
  const struct {
    const char* spec;
    const char* key;
  } kBadValues[] = {
      {"zscore:w=-3", "'w'"},       {"zscore:w=1e30", "'w'"},
      {"discord:m=2.7", "'m'"},     {"ewma:lambda=nan", "'lambda'"},
      {"zscore:w=nan", "'w'"},      {"resilient:zscore:w=-3", "'w'"},
  };
  for (const auto& bad : kBadValues) {
    const Status status = MakeDetector(bad.spec).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << bad.spec << ": " << status.ToString();
    EXPECT_NE(status.message().find(bad.key), std::string::npos)
        << bad.spec << ": " << status.ToString();
  }
  // A merlin range that no series could satisfy is refused when the
  // spec is built, also under resilient:, instead of failing every
  // Score() (or, wrapped, serving the fallback).
  for (const char* spec :
       {"merlin:min=2,max=10", "merlin:min=0,max=0", "merlin:min=60,max=40",
        "merlin:min=2", "resilient:merlin:min=60,max=40"}) {
    const Status status = MakeDetector(spec).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << spec << ": " << status.ToString();
    EXPECT_NE(status.message().find("bad MERLIN length range"),
              std::string::npos)
        << spec << ": " << status.ToString();
  }
}

TEST(RegistryTest, ConstructedDetectorActuallyDetects) {
  Rng rng(1);
  Series x = GaussianNoise(1000, 1.0, rng);
  const AnomalyRegion r = InjectSpike(x, 700, 20.0);
  Result<std::unique_ptr<AnomalyDetector>> d = MakeDetector("zscore:w=50");
  ASSERT_TRUE(d.ok());
  Result<std::vector<double>> scores = (*d)->Score(x, 0);
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(PredictLocation(*scores, 0), r.begin);
}

TEST(RegistryTest, ResilientPrefixWrapsInnerDetector) {
  Result<std::unique_ptr<AnomalyDetector>> d =
      MakeDetector("resilient:discord:m=128");
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(std::string((*d)->name()), "resilient(Discord[m=128])");

  const auto* resilient = dynamic_cast<const ResilientDetector*>(d->get());
  ASSERT_NE(resilient, nullptr);
  EXPECT_EQ(std::string(resilient->inner().name()), "Discord[m=128]");
}

TEST(RegistryTest, ResilientPrefixRejectsBadInner) {
  EXPECT_FALSE(MakeDetector("resilient:").ok());
  EXPECT_FALSE(MakeDetector("resilient:nosuchdetector").ok());
  EXPECT_FALSE(MakeDetector("resilient:discord:m=abc").ok());
}

TEST(RegistryTest, ResilientDetectorStillDetectsCleanData) {
  Rng rng(2);
  Series x = GaussianNoise(1000, 1.0, rng);
  const AnomalyRegion r = InjectSpike(x, 700, 20.0);
  Result<std::unique_ptr<AnomalyDetector>> d =
      MakeDetector("resilient:zscore:w=50");
  ASSERT_TRUE(d.ok());
  Result<std::vector<double>> scores = (*d)->Score(x, 0);
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(PredictLocation(*scores, 0), r.begin);
}

TEST(SimplifyDetectorSpecTest, HalvesWindowLikeParameters) {
  EXPECT_EQ(SimplifyDetectorSpec("discord:m=128"), "discord:m=64");
  EXPECT_EQ(SimplifyDetectorSpec("zscore:w=64"), "zscore:w=32");
}

TEST(SimplifyDetectorSpecTest, RespectsFloors) {
  // Already at (or below) the floor: nothing left to simplify, the
  // spec comes back unchanged.
  EXPECT_EQ(SimplifyDetectorSpec("discord:m=16"), "discord:m=16");
  EXPECT_EQ(SimplifyDetectorSpec("zscore:w=4"), "zscore:w=4");
}

TEST(SimplifyDetectorSpecTest, ParameterlessSpecsPassThrough) {
  EXPECT_EQ(SimplifyDetectorSpec("sr"), "sr");
  EXPECT_EQ(SimplifyDetectorSpec("cusum"), "cusum");
}

TEST(SimplifyDetectorSpecTest, RecursesThroughResilientPrefix) {
  EXPECT_EQ(SimplifyDetectorSpec("resilient:discord:m=128"),
            "resilient:discord:m=64");
}

TEST(SimplifyDetectorSpecTest, MerlinHalvesBothEnds) {
  // Both ends of the length range halve, with floors min 8 and max 16;
  // bare "merlin" simplifies from the defaults.
  EXPECT_EQ(SimplifyDetectorSpec("merlin:min=64,max=128"),
            "merlin:max=64,min=32");
  EXPECT_EQ(SimplifyDetectorSpec("merlin"), "merlin:max=48,min=24");
  EXPECT_EQ(SimplifyDetectorSpec("merlin:min=8,max=16"), "merlin:min=8,max=16");
  // Malformed specs pass through untouched (the resilient wrapper only
  // simplifies specs that already constructed).
  EXPECT_EQ(SimplifyDetectorSpec("merlin:48:96"), "merlin:48:96");
}

TEST(RegistryTest, OnelinerSpecBuildsConfiguredPredicate) {
  Result<std::unique_ptr<AnomalyDetector>> d =
      MakeDetector("oneliner:abs=1,u=1,k=21,c=3,b=0.5");
  ASSERT_TRUE(d.ok());
  EXPECT_NE(std::string((*d)->name()).find("movmean(abs(diff(TS)),21)"),
            std::string::npos);
}

}  // namespace
}  // namespace tsad
