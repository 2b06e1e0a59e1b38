#include "common/wire.h"

#include <cstring>

namespace tsad {

namespace {

std::uint64_t DoubleBits(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double DoubleFromBits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

void ByteWriter::PutU64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    buf_.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void ByteWriter::PutDouble(double v) { PutU64(DoubleBits(v)); }

void ByteWriter::PutLongDouble(long double v) {
  const double hi = static_cast<double>(v);
  const double lo = static_cast<double>(v - static_cast<long double>(hi));
  PutDouble(hi);
  PutDouble(lo);
}

void ByteWriter::PutString(std::string_view s) {
  PutU64(s.size());
  buf_.append(s.data(), s.size());
}

void ByteWriter::PutDoubles(const std::vector<double>& v) {
  PutU64(v.size());
  for (double x : v) PutDouble(x);
}

void ByteWriter::PutLongDoubles(const std::vector<long double>& v) {
  PutU64(v.size());
  for (long double x : v) PutLongDouble(x);
}

Status ByteReader::GetU64(std::uint64_t* v) {
  if (remaining() < 8) return Status::OutOfRange("snapshot truncated (u64)");
  std::uint64_t out = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    out |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(buf_[pos_++]))
           << shift;
  }
  *v = out;
  return Status::OK();
}

Status ByteReader::GetDouble(double* v) {
  std::uint64_t bits;
  TSAD_RETURN_IF_ERROR(GetU64(&bits));
  *v = DoubleFromBits(bits);
  return Status::OK();
}

Status ByteReader::GetLongDouble(long double* v) {
  double hi, lo;
  TSAD_RETURN_IF_ERROR(GetDouble(&hi));
  TSAD_RETURN_IF_ERROR(GetDouble(&lo));
  *v = static_cast<long double>(hi) + static_cast<long double>(lo);
  return Status::OK();
}

Status ByteReader::GetString(std::string* s) {
  std::uint64_t n;
  TSAD_RETURN_IF_ERROR(GetU64(&n));
  if (remaining() < n) return Status::OutOfRange("snapshot truncated (string)");
  s->assign(buf_.data() + pos_, static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return Status::OK();
}

Status ByteReader::GetCount(std::size_t entry_bytes, std::uint64_t* n) {
  TSAD_RETURN_IF_ERROR(GetU64(n));
  if (*n > remaining() / entry_bytes) {  // overflow-safe capacity check
    return Status::OutOfRange(
        "snapshot truncated (" + std::to_string(*n) + " entries of " +
        std::to_string(entry_bytes) + " bytes, " +
        std::to_string(remaining()) + " bytes left)");
  }
  return Status::OK();
}

Status ByteReader::GetDoubles(std::vector<double>* v) {
  std::uint64_t n;
  TSAD_RETURN_IF_ERROR(GetCount(8, &n));
  v->clear();
  v->reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    double x;
    TSAD_RETURN_IF_ERROR(GetDouble(&x));
    v->push_back(x);
  }
  return Status::OK();
}

Status ByteReader::GetLongDoubles(std::vector<long double>* v) {
  std::uint64_t n;
  TSAD_RETURN_IF_ERROR(GetCount(16, &n));
  v->clear();
  v->reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    long double x;
    TSAD_RETURN_IF_ERROR(GetLongDouble(&x));
    v->push_back(x);
  }
  return Status::OK();
}

Status ByteReader::ExpectDone() const {
  if (pos_ != buf_.size()) {
    return Status::InvalidArgument(
        "snapshot has " + std::to_string(buf_.size() - pos_) +
        " trailing byte(s) — wrong detector type for this blob?");
  }
  return Status::OK();
}

}  // namespace tsad
