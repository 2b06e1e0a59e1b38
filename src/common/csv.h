// Minimal CSV / plain-text serialization for labeled series, so the
// generated archives can be exported for inspection (plotting is the
// paper's #1 recommendation) and re-imported.
//
// Format for a LabeledSeries (one row per point):
//   # name=<name> train_length=<n>
//   value,label
//   0.123,0
//   ...
//
// A bare value-per-line format (no labels, no header) is also supported
// for interoperability with the real UCR archive's .txt files.

#ifndef TSAD_COMMON_CSV_H_
#define TSAD_COMMON_CSV_H_

#include <string>

#include "common/series.h"
#include "common/status.h"

namespace tsad {

/// Serializes a labeled series to CSV text (see format above).
std::string SeriesToCsv(const LabeledSeries& series);

/// Parses CSV text produced by SeriesToCsv; returns the error of
/// LabeledSeries::ValidateLabels, but keeps non-finite values.
Result<LabeledSeries> SeriesFromCsv(const std::string& text);

/// Writes a labeled series to a file.
Status WriteSeriesCsv(const LabeledSeries& series, const std::string& path);

/// Reads a labeled series from a file written by WriteSeriesCsv.
Result<LabeledSeries> ReadSeriesCsv(const std::string& path);

/// Serializes raw values, one per line (UCR .txt style).
std::string ValuesToText(const Series& values);

/// Parses whitespace/newline-separated numbers (UCR .txt style).
Result<Series> ValuesFromText(const std::string& text);

/// Writes raw values to a file, one per line.
Status WriteValuesText(const Series& values, const std::string& path);

/// Reads raw values from a file (one or more numbers per line).
Result<Series> ReadValuesText(const std::string& path);

}  // namespace tsad

#endif  // TSAD_COMMON_CSV_H_
