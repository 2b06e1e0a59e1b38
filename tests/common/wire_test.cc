#include "common/wire.h"

#include <cmath>
#include <cstring>
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

TEST(WireTest, U64IsLittleEndianOnEveryHost) {
  // The golden bytes pin the byte order itself, not only the round
  // trip: snapshots move between hosts.
  ByteWriter writer;
  writer.PutU64(0x0102030405060708ULL);
  const std::string expected = {'\x08', '\x07', '\x06', '\x05',
                                '\x04', '\x03', '\x02', '\x01'};
  EXPECT_EQ(writer.str(), expected);

  ByteReader reader(writer.str());
  std::uint64_t v = 0;
  ASSERT_TRUE(reader.GetU64(&v).ok());
  EXPECT_EQ(v, 0x0102030405060708ULL);
  EXPECT_TRUE(reader.ExpectDone().ok());
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

// Bitwise equality over a long double's value bytes: an x87 long
// double uses 10 of its bytes, the rest is padding.
bool SameLongDouble(long double a, long double b) {
  const std::size_t bytes =
      std::numeric_limits<long double>::digits == 64 ? 10 : sizeof(a);
  return std::memcmp(&a, &b, bytes) == 0;
}

TEST(WireTest, RoundTripsEveryLongDoubleBitExactly) {
  using Limits = std::numeric_limits<long double>;
  const long double values[] = {
      Limits::max(),       -Limits::max(),      1e400L,
      -1e400L,             1e-400L,             -1e-400L,
      Limits::denorm_min(), -Limits::denorm_min(), Limits::infinity(),
      -Limits::infinity(), Limits::quiet_NaN(), -0.0L,
      // Just outside the double range on either side.
      2.0L * std::numeric_limits<double>::max(),
      std::numeric_limits<double>::denorm_min() / 3.0L,
  };
  for (const long double v : values) {
    ByteWriter writer;
    writer.PutLongDouble(v);
    EXPECT_EQ(writer.str().size(), 16u);
    ByteReader reader(writer.str());
    long double out = 0.0L;
    ASSERT_TRUE(reader.GetLongDouble(&out).ok());
    EXPECT_TRUE(SameLongDouble(out, v)) << static_cast<double>(v);
    EXPECT_TRUE(reader.ExpectDone().ok());
  }
}

TEST(WireTest, OrdinaryLongDoublesKeepTheDoubleDoubleBytes) {
  // Blobs written before the tagged form existed must decode unchanged,
  // so every value the (hi, lo) pair carries keeps exactly those bytes.
  long double acc = 0.0L;
  for (int i = 0; i < 1000; ++i) acc += 0.1 * i;
  const long double values[] = {
      0.0L, 1.0L, -12345.678L, acc, -acc,
      1.0L + std::numeric_limits<long double>::epsilon(), 1e300L, 1e-300L,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::denorm_min()};
  for (const long double v : values) {
    const double hi = static_cast<double>(v);
    const double lo = static_cast<double>(v - static_cast<long double>(hi));
    ByteWriter want;
    want.PutDouble(hi);
    want.PutDouble(lo);
    ByteWriter got;
    got.PutLongDouble(v);
    EXPECT_EQ(got.str(), want.str()) << static_cast<double>(v);
  }
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

// The lengths every bulk path is checked at: empty, one value, and a
// run longer than any single buffer page.
constexpr std::size_t kBulkLengths[] = {0, 1, 4097};

TEST(WireTest, DoublesRoundTripAndMatchTheWordByWordBytes) {
  for (const std::size_t n : kBulkLengths) {
    std::vector<double> values(n);
    for (std::size_t i = 0; i < n; ++i) {
      values[i] = i % 3 == 0 ? -0.0 : 1.0 / static_cast<double>(i + 1) - 7.5;
    }
    ByteWriter bulk;
    bulk.PutDoubles(values);
    ByteWriter words;
    words.PutU64(n);
    for (double v : values) words.PutDouble(v);
    EXPECT_EQ(bulk.str(), words.str()) << n;

    ByteReader reader(bulk.str());
    std::vector<double> out = {42.0};  // replaced, not appended to
    ASSERT_TRUE(reader.GetDoubles(&out).ok()) << n;
    EXPECT_TRUE(reader.ExpectDone().ok());
    ASSERT_EQ(out.size(), n);
    EXPECT_TRUE(n == 0 ||
                std::memcmp(out.data(), values.data(), n * sizeof(double)) == 0)
        << n;
  }
}

TEST(WireTest, SizesRoundTripAndMatchTheWordByWordBytes) {
  for (const std::size_t n : kBulkLengths) {
    std::vector<std::size_t> values(n);
    for (std::size_t i = 0; i < n; ++i) {
      values[i] = i % 5 == 0 ? std::numeric_limits<std::size_t>::max()
                             : i * 2654435761u;
    }
    ByteWriter bulk;
    bulk.PutSizes(values);
    ByteWriter words;
    words.PutU64(n);
    for (std::size_t v : values) words.PutU64(v);
    EXPECT_EQ(bulk.str(), words.str()) << n;

    ByteReader reader(bulk.str());
    std::vector<std::size_t> out = {7, 8};  // replaced, not appended to
    ASSERT_TRUE(reader.GetSizes(&out).ok()) << n;
    EXPECT_TRUE(reader.ExpectDone().ok());
    EXPECT_EQ(out, values) << n;
  }
}

TEST(WireTest, WordsRoundTripAndMatchTheWordByWordBytes) {
  // A struct of two 8-byte words, laid out like the serving engine's
  // scored points.
  struct Pair {
    std::uint64_t index;
    double score;
  };
  static_assert(sizeof(Pair) == 16);
  for (const std::size_t n : kBulkLengths) {
    std::vector<Pair> values(n);
    for (std::size_t i = 0; i < n; ++i) {
      values[i] = {i * 0x9E3779B97F4A7C15ULL, std::sqrt(static_cast<double>(i))};
    }
    ByteWriter bulk;
    bulk.PutWords(values.data(), 2 * n);
    ByteWriter words;
    for (const Pair& p : values) {
      words.PutU64(p.index);
      words.PutDouble(p.score);
    }
    EXPECT_EQ(bulk.str(), words.str()) << n;

    ByteReader reader(bulk.str());
    std::vector<Pair> out(n);
    ASSERT_TRUE(reader.GetWords(out.data(), 2 * n).ok()) << n;
    EXPECT_TRUE(reader.ExpectDone().ok());
    EXPECT_TRUE(n == 0 ||
                std::memcmp(out.data(), values.data(), n * sizeof(Pair)) == 0)
        << n;

    // One byte short: OutOfRange, and nothing is consumed.
    if (n > 0) {
      ByteReader short_reader(
          std::string_view(bulk.str()).substr(0, bulk.str().size() - 1));
      EXPECT_EQ(short_reader.GetWords(out.data(), 2 * n).code(),
                StatusCode::kOutOfRange);
      EXPECT_EQ(short_reader.remaining(), bulk.str().size() - 1);
    }
  }
}

TEST(WireTest, ViewsReadWithoutCopying) {
  for (const std::size_t n : kBulkLengths) {
    const std::string payload(n, 'x');
    ByteWriter writer;
    writer.PutString(payload);
    writer.PutBytes(payload);
    const std::string blob = writer.str();
    ByteReader reader(blob);
    std::string_view as_string, as_bytes;
    ASSERT_TRUE(reader.GetStringView(&as_string).ok()) << n;
    ASSERT_TRUE(reader.GetBytes(n, &as_bytes).ok()) << n;
    EXPECT_TRUE(reader.ExpectDone().ok());
    EXPECT_EQ(as_string, payload);
    EXPECT_EQ(as_bytes, payload);
    // Views into the reader's buffer, not copies.
    EXPECT_EQ(as_string.data(), blob.data() + 8);
    EXPECT_EQ(as_bytes.data(), blob.data() + 8 + n);
    EXPECT_EQ(reader.GetBytes(1, &as_bytes).code(), StatusCode::kOutOfRange);
  }
}

TEST(WireTest, TruncatedSizesAreOutOfRange) {
  ByteWriter writer;
  writer.PutSizes({1, 2, 3});
  const std::string blob = writer.str();
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    ByteReader reader(std::string_view(blob).substr(0, cut));
    std::vector<std::size_t> out;
    EXPECT_EQ(reader.GetSizes(&out).code(), StatusCode::kOutOfRange)
        << "cut=" << cut;
  }
}

}  // namespace
}  // namespace tsad
