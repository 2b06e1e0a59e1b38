#include "common/csv.h"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace tsad {

namespace {

// Parses one double with std::from_chars semantics; returns false on
// failure. `sv` is trimmed of leading spaces first.
bool ParseDouble(std::string_view sv, double* out) {
  while (!sv.empty() && (sv.front() == ' ' || sv.front() == '\t')) {
    sv.remove_prefix(1);
  }
  while (!sv.empty() && (sv.back() == ' ' || sv.back() == '\t' ||
                         sv.back() == '\r')) {
    sv.remove_suffix(1);
  }
  if (sv.empty()) return false;
  const char* begin = sv.data();
  const char* end = sv.data() + sv.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Status::IOError("error while reading '" + path + "'");
  return buf.str();
}

Status WriteStringToFile(const std::string& text, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  out << text;
  out.flush();
  if (!out) return Status::IOError("error while writing '" + path + "'");
  return Status::OK();
}

}  // namespace

std::string SeriesToCsv(const LabeledSeries& series) {
  std::ostringstream out;
  out << "# name=" << series.name()
      << " train_length=" << series.train_length() << "\n";
  out << "value,label\n";
  const std::vector<uint8_t> labels = series.BinaryLabels();
  out.precision(17);
  for (std::size_t i = 0; i < series.length(); ++i) {
    out << series.values()[i] << ',' << static_cast<int>(labels[i]) << "\n";
  }
  return out.str();
}

Result<LabeledSeries> SeriesFromCsv(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::string name;
  std::size_t train_length = 0;
  Series values;
  std::vector<uint8_t> labels;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '#') {
      // Header comment: "# name=<name> train_length=<n>"
      const std::size_t name_pos = line.find("name=");
      const std::size_t train_pos = line.find("train_length=");
      if (name_pos != std::string::npos) {
        std::size_t end = line.find(' ', name_pos);
        name = line.substr(name_pos + 5,
                           end == std::string::npos ? std::string::npos
                                                    : end - (name_pos + 5));
      }
      if (train_pos != std::string::npos) {
        // Digits only: a sign, junk or overflow is refused, not wrapped.
        const char* begin = line.c_str() + train_pos + 13;
        const char* end = begin + std::strcspn(begin, " \t");
        const auto [ptr, ec] = std::from_chars(begin, end, train_length);
        if (begin == end || ec != std::errc() || ptr != end) {
          return Status::InvalidArgument(
              "line " + std::to_string(lineno) + ": bad train_length '" +
              std::string(begin, end) + "' (want decimal digits)");
        }
      }
      continue;
    }
    if (line == "value,label") continue;  // column header
    const std::size_t comma = line.find(',');
    if (comma == std::string::npos) {
      return Status::InvalidArgument("line " + std::to_string(lineno) +
                                     ": expected 'value,label'");
    }
    double v = 0.0;
    if (!ParseDouble(std::string_view(line).substr(0, comma), &v)) {
      return Status::InvalidArgument("line " + std::to_string(lineno) +
                                     ": bad value field");
    }
    double lab = 0.0;
    if (!ParseDouble(std::string_view(line).substr(comma + 1), &lab)) {
      return Status::InvalidArgument("line " + std::to_string(lineno) +
                                     ": bad label field");
    }
    values.push_back(v);
    labels.push_back(lab != 0.0 ? 1 : 0);
  }
  LabeledSeries series(std::move(name), std::move(values),
                       RegionsFromBinary(labels), train_length);
  TSAD_RETURN_IF_ERROR(series.ValidateLabels());
  return series;
}

Status WriteSeriesCsv(const LabeledSeries& series, const std::string& path) {
  return WriteStringToFile(SeriesToCsv(series), path);
}

Result<LabeledSeries> ReadSeriesCsv(const std::string& path) {
  TSAD_ASSIGN_OR_RETURN(const std::string text, ReadFileToString(path));
  return SeriesFromCsv(text);
}

std::string ValuesToText(const Series& values) {
  std::ostringstream out;
  out.precision(17);
  for (double v : values) out << v << "\n";
  return out.str();
}

Result<Series> ValuesFromText(const std::string& text) {
  Series values;
  const char* p = text.c_str();
  const char* end = p + text.size();
  while (p < end) {
    // Skip whitespace/newlines/commas.
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r' ||
                       *p == ',')) {
      ++p;
    }
    if (p >= end) break;
    double v = 0.0;
    auto [ptr, ec] = std::from_chars(p, end, v);
    if (ec != std::errc()) {
      return Status::InvalidArgument(
          "bad number near offset " +
          std::to_string(static_cast<std::size_t>(p - text.c_str())));
    }
    values.push_back(v);
    p = ptr;
  }
  return values;
}

Status WriteValuesText(const Series& values, const std::string& path) {
  return WriteStringToFile(ValuesToText(values), path);
}

Result<Series> ReadValuesText(const std::string& path) {
  TSAD_ASSIGN_OR_RETURN(const std::string text, ReadFileToString(path));
  return ValuesFromText(text);
}

}  // namespace tsad
