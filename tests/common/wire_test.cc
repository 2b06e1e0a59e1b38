#include "common/wire.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace tsad {
namespace {

TEST(WireTest, RoundTripsScalars) {
  ByteWriter writer;
  writer.PutU64(0);
  writer.PutU64(std::numeric_limits<std::uint64_t>::max());
  writer.PutDouble(3.141592653589793);
  writer.PutDouble(-0.0);
  writer.PutString("hello");
  const std::string blob = writer.str();

  ByteReader reader(blob);
  std::uint64_t a, b;
  double c, d;
  std::string s;
  ASSERT_TRUE(reader.GetU64(&a).ok());
  ASSERT_TRUE(reader.GetU64(&b).ok());
  ASSERT_TRUE(reader.GetDouble(&c).ok());
  ASSERT_TRUE(reader.GetDouble(&d).ok());
  ASSERT_TRUE(reader.GetString(&s).ok());
  EXPECT_TRUE(reader.ExpectDone().ok());
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(c, 3.141592653589793);
  EXPECT_TRUE(std::signbit(d));
  EXPECT_EQ(s, "hello");
}

TEST(WireTest, RoundTripsNonFiniteDoublesBitExactly) {
  ByteWriter writer;
  writer.PutDouble(std::numeric_limits<double>::infinity());
  writer.PutDouble(std::numeric_limits<double>::quiet_NaN());
  writer.PutDouble(std::numeric_limits<double>::denorm_min());
  ByteReader reader(writer.str());
  double inf, nan, denorm;
  ASSERT_TRUE(reader.GetDouble(&inf).ok());
  ASSERT_TRUE(reader.GetDouble(&nan).ok());
  ASSERT_TRUE(reader.GetDouble(&denorm).ok());
  EXPECT_TRUE(std::isinf(inf));
  EXPECT_TRUE(std::isnan(nan));
  EXPECT_EQ(denorm, std::numeric_limits<double>::denorm_min());
}

TEST(WireTest, RoundTripsLongDoubleExactly) {
  // A value whose long double representation is NOT a double: the sum
  // picks up low-order bits only the extended format can hold.
  const long double v = 1.0L + std::numeric_limits<long double>::epsilon();
  ASSERT_NE(static_cast<long double>(static_cast<double>(v)), v);
  ByteWriter writer;
  writer.PutLongDouble(v);
  ByteReader reader(writer.str());
  long double out = 0.0L;
  ASSERT_TRUE(reader.GetLongDouble(&out).ok());
  EXPECT_EQ(out, v);
}

TEST(WireTest, RoundTripsLongDoubleAccumulatorState) {
  // Simulates the rolling-sum use case: a long double accumulated over
  // many doubles must restore to the exact same value.
  long double acc = 0.0L;
  for (int i = 0; i < 1000; ++i) acc += 0.1 * i;
  ByteWriter writer;
  writer.PutLongDoubles({acc, -acc, 0.0L});
  ByteReader reader(writer.str());
  std::vector<long double> out;
  ASSERT_TRUE(reader.GetLongDoubles(&out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], acc);
  EXPECT_EQ(out[1], -acc);
  EXPECT_EQ(out[2], 0.0L);
}

TEST(WireTest, TruncatedBufferIsOutOfRangeNotUb) {
  ByteWriter writer;
  writer.PutDoubles({1.0, 2.0, 3.0});
  const std::string blob = writer.str();
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    ByteReader reader(std::string_view(blob).substr(0, cut));
    std::vector<double> out;
    const Status s = reader.GetDoubles(&out);
    EXPECT_FALSE(s.ok()) << "cut=" << cut;
    EXPECT_EQ(s.code(), StatusCode::kOutOfRange) << "cut=" << cut;
  }
}

TEST(WireTest, ExpectDoneCatchesTrailingBytes) {
  ByteWriter writer;
  writer.PutU64(7);
  writer.PutU64(8);
  ByteReader reader(writer.str());
  std::uint64_t v;
  ASSERT_TRUE(reader.GetU64(&v).ok());
  const Status s = reader.ExpectDone();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, BogusLengthPrefixIsRejectedWithoutAllocating) {
  ByteWriter writer;
  writer.PutU64(std::numeric_limits<std::uint64_t>::max());  // huge count
  ByteReader reader(writer.str());
  std::vector<double> out;
  EXPECT_EQ(reader.GetDoubles(&out).code(), StatusCode::kOutOfRange);
  std::string s;
  ByteReader reader2(writer.str());
  EXPECT_EQ(reader2.GetString(&s).code(), StatusCode::kOutOfRange);
}

TEST(WireTest, GetCountRejectsCountsTheRestCannotHold) {
  ByteWriter writer;
  writer.PutU64(2);
  writer.PutDouble(1.0);
  writer.PutDouble(2.0);
  std::uint64_t n = 0;
  ByteReader fits(writer.str());
  ASSERT_TRUE(fits.GetCount(8, &n).ok());
  EXPECT_EQ(n, 2u);
  // Two 16-byte entries do not fit in the 16 bytes that follow.
  ByteReader too_wide(writer.str());
  EXPECT_EQ(too_wide.GetCount(16, &n).code(), StatusCode::kOutOfRange);
  // A count whose byte size overflows u64 is still caught.
  ByteWriter huge;
  huge.PutU64(std::numeric_limits<std::uint64_t>::max());
  ByteReader inflated(huge.str());
  EXPECT_EQ(inflated.GetCount(16, &n).code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace tsad
