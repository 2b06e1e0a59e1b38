#include "common/csv.h"

#include <cmath>
#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

namespace tsad {
namespace {

LabeledSeries SampleSeries() {
  return LabeledSeries("demo series", {1.5, -2.25, 3.125, 0.0, 7.0},
                       {{2, 4}}, 2);
}

TEST(CsvTest, SeriesRoundTripsThroughText) {
  const LabeledSeries original = SampleSeries();
  const std::string text = SeriesToCsv(original);
  Result<LabeledSeries> parsed = SeriesFromCsv(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->name(), "demo");  // spaces end the name field
  EXPECT_EQ(parsed->values(), original.values());
  EXPECT_EQ(parsed->anomalies(), original.anomalies());
  EXPECT_EQ(parsed->train_length(), original.train_length());
}

TEST(CsvTest, PreservesFullDoublePrecision) {
  const double v = 0.1234567890123456789;
  LabeledSeries s("p", {v}, {});
  Result<LabeledSeries> parsed = SeriesFromCsv(SeriesToCsv(s));
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->values()[0], v);
}

TEST(CsvTest, RejectsMalformedRows) {
  EXPECT_FALSE(SeriesFromCsv("value,label\nnot-a-number,0\n").ok());
  EXPECT_FALSE(SeriesFromCsv("value,label\n1.0\n").ok());  // missing label
  EXPECT_FALSE(SeriesFromCsv("value,label\n1.0,zz\n").ok());
}

TEST(CsvTest, RejectsBadTrainLengthHeaders) {
  for (const char* bad : {"-5", "100abc", "99999999999999999999", "", "+3"}) {
    const Result<LabeledSeries> parsed = SeriesFromCsv(
        std::string("# name=x train_length=") + bad + "\nvalue,label\n1,0\n");
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(CsvTest, RejectsTrainPrefixLongerThanTheRows) {
  const std::string rows = "value,label\n1,0\n2,0\n3,0\n";
  const Result<LabeledSeries> over =
      SeriesFromCsv("# name=x train_length=4\n" + rows);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);
  const Result<LabeledSeries> whole =
      SeriesFromCsv("# name=x train_length=3\r\n" + rows);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_EQ(whole->train_length(), 3u);
}

TEST(CsvTest, RejectsALabelInsideTheTrainingPrefix) {
  const std::string rows = "value,label\n1,0\n2,1\n3,0\n4,0\n";
  const Result<LabeledSeries> inside =
      SeriesFromCsv("# name=x train_length=2\n" + rows);
  ASSERT_FALSE(inside.ok());
  EXPECT_EQ(inside.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(inside.status().message().find("inside the training prefix"),
            std::string::npos)
      << inside.status().ToString();
  // The prefix may end where the label begins.
  EXPECT_TRUE(SeriesFromCsv("# name=x train_length=1\n" + rows).ok());
}

TEST(CsvTest, KeepsNonFiniteValues) {
  // resilient: specs impute NaN input, so the reader must pass it on.
  const Result<LabeledSeries> parsed =
      SeriesFromCsv("# name=x train_length=1\nvalue,label\n1,0\nnan,0\n"
                    "inf,1\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->length(), 3u);
  EXPECT_TRUE(std::isnan(parsed->values()[1]));
  EXPECT_TRUE(std::isinf(parsed->values()[2]));
  EXPECT_TRUE(parsed->IsAnomalous(2));
}

TEST(CsvTest, ToleratesCrLfAndBlankLines) {
  Result<LabeledSeries> parsed =
      SeriesFromCsv("# name=x train_length=0\r\nvalue,label\r\n\r\n1,0\r\n2,1\r\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->length(), 2u);
  EXPECT_TRUE(parsed->IsAnomalous(1));
}

TEST(CsvFileTest, WriteAndReadBack) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "tsad_csv_test.csv").string();
  const LabeledSeries original = SampleSeries();
  ASSERT_TRUE(WriteSeriesCsv(original, path).ok());
  Result<LabeledSeries> parsed = ReadSeriesCsv(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->values(), original.values());
  std::remove(path.c_str());
}

TEST(CsvFileTest, MissingFileIsIOError) {
  Result<LabeledSeries> r = ReadSeriesCsv("/nonexistent/dir/file.csv");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(ValuesTextTest, RoundTrips) {
  const Series values = {1.0, -2.5, 3.75};
  Result<Series> parsed = ValuesFromText(ValuesToText(values));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, values);
}

TEST(ValuesTextTest, AcceptsCommasAndWhitespace) {
  Result<Series> parsed = ValuesFromText(" 1.5, 2.5\n3.5\t4.5 ");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, (Series{1.5, 2.5, 3.5, 4.5}));
}

TEST(ValuesTextTest, RejectsGarbage) {
  EXPECT_FALSE(ValuesFromText("1.5 banana 2.5").ok());
}

TEST(ValuesTextTest, EmptyTextIsEmptySeries) {
  Result<Series> parsed = ValuesFromText("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
}

TEST(ValuesFileTest, WriteAndReadBack) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "tsad_values_test.txt")
          .string();
  const Series values = {9.5, 8.25, -1.0};
  ASSERT_TRUE(WriteValuesText(values, path).ok());
  Result<Series> parsed = ReadValuesText(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, values);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tsad
