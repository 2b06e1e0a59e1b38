#include "common/wire.h"

#include <bit>
#include <cstring>
#include <limits>

namespace tsad {

namespace {

// The wire's byte order: here a word's bytes are copied as they lie in
// memory; elsewhere they are assembled with shifts.
constexpr bool kLittleEndian = std::endian::native == std::endian::little;

// x86's 80-bit extended long double: a 64-bit significand (explicit
// integer bit) followed by 16 bits of sign and exponent, little-endian.
constexpr bool kX87LongDouble =
    std::numeric_limits<long double>::digits == 64 && kLittleEndian;

// The tagged long-double form's first word: a quiet NaN whose payload
// carries this marker above the 16 sign-and-exponent bits.
constexpr std::uint64_t kTaggedMask = 0xFFFF'FFFF'FFFF'0000ULL;
constexpr std::uint64_t kTaggedHi = 0x7FFA'5D1E'7A60'0000ULL;

// Bitwise equality over the 10 bytes an x87 long double uses (the rest
// of its storage is padding).
bool SameX87(long double a, long double b) {
  return std::memcmp(&a, &b, 10) == 0;
}

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
  if constexpr (kLittleEndian) {
    buf_.append(reinterpret_cast<const char*>(&v), sizeof(v));
  } else {
    for (int shift = 0; shift < 64; shift += 8) {
      buf_.push_back(static_cast<char>((v >> shift) & 0xff));
    }
  }
}

void ByteWriter::PutWords(const void* words, std::size_t n) {
  const char* bytes = static_cast<const char*>(words);
  if constexpr (kLittleEndian) {
    buf_.append(bytes, 8 * n);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t word;
      std::memcpy(&word, bytes + 8 * i, sizeof(word));
      PutU64(word);
    }
  }
}

void ByteWriter::PutDouble(double v) { PutU64(DoubleBits(v)); }

void ByteWriter::PutLongDouble(long double v) {
  const double hi = static_cast<double>(v);
  const double lo = static_cast<double>(v - static_cast<long double>(hi));
  if constexpr (kX87LongDouble) {
    // Values the (hi, lo) pair cannot carry: beyond or below the double
    // range, infinities, -0. A hi that looks tagged must be tagged too.
    const long double back =
        static_cast<long double>(hi) + static_cast<long double>(lo);
    if (!SameX87(back, v) || (DoubleBits(hi) & kTaggedMask) == kTaggedHi) {
      std::uint64_t significand = 0;
      std::uint16_t sign_exponent = 0;
      std::memcpy(&significand, &v, 8);
      std::memcpy(&sign_exponent, reinterpret_cast<const char*>(&v) + 8, 2);
      PutU64(kTaggedHi | sign_exponent);
      PutU64(significand);
      return;
    }
  }
  PutDouble(hi);
  PutDouble(lo);
}

void ByteWriter::PutString(std::string_view s) {
  PutU64(s.size());
  buf_.append(s.data(), s.size());
}

void ByteWriter::PutDoubles(const std::vector<double>& v) {
  PutU64(v.size());
  PutWords(v.data(), v.size());
}

void ByteWriter::PutSizes(const std::vector<std::size_t>& v) {
  PutU64(v.size());
  if constexpr (sizeof(std::size_t) == sizeof(std::uint64_t)) {
    PutWords(v.data(), v.size());
  } else {
    for (std::size_t x : v) PutU64(x);
  }
}

void ByteWriter::PutLongDoubles(const std::vector<long double>& v) {
  PutU64(v.size());
  for (long double x : v) PutLongDouble(x);
}

Status ByteReader::GetU64(std::uint64_t* v) {
  if (remaining() < 8) return Status::OutOfRange("snapshot truncated (u64)");
  if constexpr (kLittleEndian) {
    std::memcpy(v, buf_.data() + pos_, sizeof(*v));
    pos_ += sizeof(*v);
  } else {
    std::uint64_t out = 0;
    for (int shift = 0; shift < 64; shift += 8) {
      out |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(buf_[pos_++]))
             << shift;
    }
    *v = out;
  }
  return Status::OK();
}

Status ByteReader::GetWords(void* words, std::size_t n) {
  if (n > remaining() / 8) {
    return Status::OutOfRange("snapshot truncated (" + std::to_string(n) +
                              " words, " + std::to_string(remaining()) +
                              " bytes left)");
  }
  char* bytes = static_cast<char*>(words);
  if constexpr (kLittleEndian) {
    if (n != 0) std::memcpy(bytes, buf_.data() + pos_, 8 * n);
    pos_ += 8 * n;
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t word;
      TSAD_RETURN_IF_ERROR(GetU64(&word));
      std::memcpy(bytes + 8 * i, &word, sizeof(word));
    }
  }
  return Status::OK();
}

Status ByteReader::GetBytes(std::size_t n, std::string_view* bytes) {
  if (remaining() < n) return Status::OutOfRange("snapshot truncated (bytes)");
  *bytes = buf_.substr(pos_, n);
  pos_ += n;
  return Status::OK();
}

Status ByteReader::GetDouble(double* v) {
  std::uint64_t bits;
  TSAD_RETURN_IF_ERROR(GetU64(&bits));
  *v = DoubleFromBits(bits);
  return Status::OK();
}

Status ByteReader::GetLongDouble(long double* v) {
  std::uint64_t hi, lo;
  TSAD_RETURN_IF_ERROR(GetU64(&hi));
  TSAD_RETURN_IF_ERROR(GetU64(&lo));
  if constexpr (kX87LongDouble) {
    if ((hi & kTaggedMask) == kTaggedHi) {
      const std::uint16_t sign_exponent = static_cast<std::uint16_t>(hi);
      long double out = 0.0L;
      std::memcpy(&out, &lo, 8);
      std::memcpy(reinterpret_cast<char*>(&out) + 8, &sign_exponent, 2);
      *v = out;
      return Status::OK();
    }
  }
  *v = static_cast<long double>(DoubleFromBits(hi)) +
       static_cast<long double>(DoubleFromBits(lo));
  return Status::OK();
}

Status ByteReader::GetString(std::string* s) {
  std::string_view view;
  TSAD_RETURN_IF_ERROR(GetStringView(&view));
  s->assign(view);
  return Status::OK();
}

Status ByteReader::GetStringView(std::string_view* s) {
  std::uint64_t n;
  TSAD_RETURN_IF_ERROR(GetU64(&n));
  if (remaining() < n) return Status::OutOfRange("snapshot truncated (string)");
  *s = buf_.substr(pos_, static_cast<std::size_t>(n));
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
  v->resize(static_cast<std::size_t>(n));
  return GetWords(v->data(), v->size());
}

Status ByteReader::GetSizes(std::vector<std::size_t>* v) {
  std::uint64_t n;
  TSAD_RETURN_IF_ERROR(GetCount(8, &n));
  v->resize(static_cast<std::size_t>(n));
  if constexpr (sizeof(std::size_t) == sizeof(std::uint64_t)) {
    return GetWords(v->data(), v->size());
  } else {
    for (std::size_t& x : *v) {
      std::uint64_t value;
      TSAD_RETURN_IF_ERROR(GetU64(&value));
      x = static_cast<std::size_t>(value);
    }
    return Status::OK();
  }
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
