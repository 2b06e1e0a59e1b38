#include "common/fft.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace tsad {
namespace {

TEST(NextPowerOfTwoTest, KnownValues) {
  EXPECT_EQ(NextPowerOfTwo(0), 1u);
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(2), 2u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(1024), 1024u);
  EXPECT_EQ(NextPowerOfTwo(1025), 2048u);
}

TEST(FftTest, ForwardInverseRoundTrip) {
  Rng rng(5);
  std::vector<std::complex<double>> x(256);
  for (auto& c : x) c = {rng.Gaussian(), rng.Gaussian()};
  const auto original = x;
  Fft(x, /*inverse=*/false);
  Fft(x, /*inverse=*/true);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i].real(), original[i].real(), 1e-9);
    EXPECT_NEAR(x[i].imag(), original[i].imag(), 1e-9);
  }
}

TEST(FftTest, DeltaTransformsToConstant) {
  std::vector<std::complex<double>> x(64, {0.0, 0.0});
  x[0] = {1.0, 0.0};
  Fft(x, false);
  for (const auto& c : x) {
    EXPECT_NEAR(c.real(), 1.0, 1e-12);
    EXPECT_NEAR(c.imag(), 0.0, 1e-12);
  }
}

TEST(FftTest, PureToneHasSingleBin) {
  const std::size_t n = 128;
  std::vector<std::complex<double>> x(n);
  const std::size_t freq = 9;
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = {std::cos(2.0 * 3.14159265358979 * static_cast<double>(freq * i) /
                     static_cast<double>(n)),
            0.0};
  }
  Fft(x, false);
  for (std::size_t k = 0; k < n; ++k) {
    const double mag = std::abs(x[k]);
    if (k == freq || k == n - freq) {
      EXPECT_NEAR(mag, static_cast<double>(n) / 2.0, 1e-6);
    } else {
      EXPECT_NEAR(mag, 0.0, 1e-6);
    }
  }
}

// Regression: the power-of-two precondition used to be a debug-only
// assert, so a release build fed a non-power-of-two length ran the
// radix-2 butterflies on garbage strides and returned nonsense. The
// precondition is now enforced in all build modes by zero-padding in
// place; the transform must agree with an explicitly padded call.
TEST(FftTest, NonPowerOfTwoInputIsZeroPaddedNotGarbage) {
  Rng rng(21);
  std::vector<std::complex<double>> raw(100);
  for (auto& c : raw) c = {rng.Gaussian(), rng.Gaussian()};

  std::vector<std::complex<double>> padded = raw;
  padded.resize(NextPowerOfTwo(raw.size()));  // 128, explicit zero-pad
  Fft(padded, /*inverse=*/false);

  std::vector<std::complex<double>> x = raw;
  Fft(x, /*inverse=*/false);  // internal pad path
  ASSERT_EQ(x.size(), 128u);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i].real(), padded[i].real(), 1e-12) << "i=" << i;
    EXPECT_NEAR(x[i].imag(), padded[i].imag(), 1e-12) << "i=" << i;
  }
}

TEST(FftTest, NonPowerOfTwoRoundTripRecoversInput) {
  Rng rng(22);
  std::vector<std::complex<double>> x(37);
  for (auto& c : x) c = {rng.Gaussian(), rng.Gaussian()};
  const auto original = x;
  Fft(x, /*inverse=*/false);   // grows to 64
  Fft(x, /*inverse=*/true);
  ASSERT_EQ(x.size(), 64u);
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_NEAR(x[i].real(), original[i].real(), 1e-9);
    EXPECT_NEAR(x[i].imag(), original[i].imag(), 1e-9);
  }
  for (std::size_t i = original.size(); i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(x[i]), 0.0, 1e-9);  // pad region stays zero
  }
}

TEST(FftTest, EmptyInputIsANoOp) {
  std::vector<std::complex<double>> x;
  Fft(x, /*inverse=*/false);
  EXPECT_TRUE(x.empty());
}

}  // namespace
}  // namespace tsad
