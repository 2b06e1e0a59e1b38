// Exact binary serialization for detector/engine snapshots.
//
// The serving layer's Snapshot()/Restore() contract is bit-exactness: a
// restored detector must continue the stream with byte-identical scores.
// Text formats round-trip doubles only with care and long doubles not at
// all, so snapshots are a length-checked little-endian byte stream:
//
//  * u64      — 8 bytes, little-endian. A little-endian host copies the
//               bytes directly, other hosts assemble them with shifts;
//               the blob is identical either way.
//  * double   — IEEE-754 bit pattern as u64.
//  * long double — 16 bytes, exact for every value. Usually a
//               double-double pair (hi = round(v), lo = v - hi): on
//               x86-64's 80-bit extended format the residual fits a
//               double exactly inside the double range. Values the pair
//               cannot carry (beyond or below the double range, ±inf,
//               -0) take a tagged form: hi is a quiet NaN whose payload
//               holds a marker and the 16 sign and exponent bits, and
//               the next word is the 64-bit significand. Where long
//               double is a double, the pair is (v, 0) and always exact.
//  * string   — u64 length + raw bytes.
//  * arrays   — u64 count + the values. Arrays of doubles, of indices
//               and of other 8-byte words are one bulk copy on a
//               little-endian host, behind the same length check.
//
// ByteReader returns OutOfRange on truncation instead of reading past
// the end, so a corrupted snapshot degrades to a clean Status.

#ifndef TSAD_COMMON_WIRE_H_
#define TSAD_COMMON_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace tsad {

/// Appends typed values to a byte buffer.
class ByteWriter {
 public:
  void PutU64(std::uint64_t v);
  void PutDouble(double v);
  void PutLongDouble(long double v);
  void PutString(std::string_view s);
  void PutDoubles(const std::vector<double>& v);          // length + values
  void PutSizes(const std::vector<std::size_t>& v);       // length + values
  void PutLongDoubles(const std::vector<long double>& v); // length + values

  /// Appends `n` 8-byte words read from `words`: the native bits of
  /// doubles, u64s or 64-bit size_ts, or of a struct made only of
  /// them. Each is written exactly as PutU64 writes it.
  void PutWords(const void* words, std::size_t n);

  /// Appends raw bytes with no length prefix (a record encoded by
  /// another writer).
  void PutBytes(std::string_view bytes) { buf_.append(bytes); }

  /// Makes room for `bytes` more bytes, so a writer that knows (an
  /// upper estimate of) its final size fills one buffer instead of
  /// regrowing and copying it as it doubles.
  void Reserve(std::size_t bytes) { buf_.reserve(buf_.size() + bytes); }

  const std::string& str() const { return buf_; }
  std::string Take() { return std::move(buf_); }
  /// Empties the buffer but keeps its capacity for the next record.
  void Clear() { buf_.clear(); }

 private:
  std::string buf_;
};

/// Reads typed values back; every getter bounds-checks and returns
/// OutOfRange once the buffer is exhausted.
class ByteReader {
 public:
  explicit ByteReader(std::string_view buf) : buf_(buf) {}

  Status GetU64(std::uint64_t* v);
  Status GetDouble(double* v);
  Status GetLongDouble(long double* v);
  Status GetString(std::string* s);
  /// GetString without the copy: a view into the buffer.
  Status GetStringView(std::string_view* s);
  Status GetDoubles(std::vector<double>* v);
  Status GetSizes(std::vector<std::size_t>* v);
  Status GetLongDoubles(std::vector<long double>* v);

  /// Reads `n` words written by PutWords into `words`, which must have
  /// room for 8 * n bytes; OutOfRange, reading nothing, when fewer
  /// than that remain.
  Status GetWords(void* words, std::size_t n);

  /// The next `n` bytes as a view into the buffer, without copying.
  Status GetBytes(std::size_t n, std::string_view* bytes);

  /// Reads the element count of an array whose entries take
  /// `entry_bytes` each, and returns OutOfRange when the unread bytes
  /// cannot hold that many — so a corrupted count fails here instead
  /// of reserving an absurd allocation. Use before every reserve().
  Status GetCount(std::size_t entry_bytes, std::uint64_t* n);

  /// Bytes not yet consumed.
  std::size_t remaining() const { return buf_.size() - pos_; }

  /// OK only when the whole buffer was consumed — catches snapshots
  /// applied to the wrong detector type.
  Status ExpectDone() const;

 private:
  std::string_view buf_;
  std::size_t pos_ = 0;
};

}  // namespace tsad

#endif  // TSAD_COMMON_WIRE_H_
