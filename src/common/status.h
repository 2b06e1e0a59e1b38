// Status and Result<T>: exception-free error propagation for the tsad
// library, in the style of RocksDB's Status / Abseil's StatusOr.
//
// Conventions used across the library:
//  * Functions that can fail on bad input or I/O return Status or
//    Result<T>.
//  * Programming errors (violated preconditions that indicate a bug in
//    the caller, not bad data) may assert in debug builds.
//  * Status is cheap to copy for OK (no allocation); error statuses
//    carry a code and a message.

#ifndef TSAD_COMMON_STATUS_H_
#define TSAD_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace tsad {

/// Canonical error space, loosely following absl::StatusCode.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kFailedPrecondition = 4,
  kInternal = 5,
  kUnimplemented = 6,
  kIOError = 7,
  kDeadlineExceeded = 8,
  kResourceExhausted = 9,
};

/// The largest StatusCode: a code read from outside the program (a
/// snapshot, say) above it names no status.
inline constexpr StatusCode kLastStatusCode = StatusCode::kResourceExhausted;

/// Returns a human-readable name for a status code ("OK",
/// "InvalidArgument", ...).
std::string_view StatusCodeToString(StatusCode code);

/// A success-or-error value. OK statuses are allocation-free.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given code and message. An empty
  /// message is allowed but discouraged for non-OK codes.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  // Factory helpers, mirroring absl::InvalidArgumentError and friends.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Result<T>: either a value or an error Status. Modeled on
/// absl::StatusOr<T>, reduced to what this library needs.
///
/// Usage:
///   Result<TimeSeries> r = LoadSeries(path);
///   if (!r.ok()) return r.status();
///   Use(r.value());
template <typename T>
class Result {
 public:
  /// Constructs from a value (implicit, so `return value;` works).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Constructs from an error status. Must not be OK: a Result carrying
  /// an OK status but no value is a bug.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result constructed from OK status w/o value");
    if (status_.ok()) {
      status_ = Status::Internal("Result constructed from OK status");
    }
  }

  Result(const Result&) = default;
  Result& operator=(const Result&) = default;
  Result(Result&&) noexcept = default;
  Result& operator=(Result&&) noexcept = default;

  bool ok() const { return value_.has_value(); }

  /// The error status; OK() if a value is held.
  const Status& status() const { return status_; }

  /// The held value. Precondition: ok().
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value, or `fallback` if this holds an error.
  T value_or(T fallback) const& { return ok() ? *value_ : fallback; }

 private:
  std::optional<T> value_;
  Status status_;  // OK iff value_ holds a value.
};

/// Early-return helper: propagates a non-OK status out of the calling
/// function. Only usable in functions returning Status.
#define TSAD_RETURN_IF_ERROR(expr)                   \
  do {                                               \
    ::tsad::Status tsad_return_if_error_s = (expr);  \
    if (!tsad_return_if_error_s.ok())                \
      return tsad_return_if_error_s;                 \
  } while (0)

#define TSAD_STATUS_CONCAT_INNER_(a, b) a##b
#define TSAD_STATUS_CONCAT_(a, b) TSAD_STATUS_CONCAT_INNER_(a, b)

/// Unwraps a Result<T> into `lhs` (which may be a declaration, e.g.
/// `TSAD_ASSIGN_OR_RETURN(auto mp, ComputeMatrixProfile(x, m))`),
/// early-returning the error status on failure. Usable in functions
/// returning Status or Result<U>. Replaces the repeated
/// `if (!r.ok()) return r.status();` pattern.
#define TSAD_ASSIGN_OR_RETURN(lhs, expr)                                 \
  TSAD_ASSIGN_OR_RETURN_IMPL_(                                           \
      TSAD_STATUS_CONCAT_(tsad_assign_or_return_, __LINE__), lhs, expr)

#define TSAD_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                \
  if (!tmp.ok()) return tmp.status();               \
  lhs = std::move(tmp).value()

}  // namespace tsad

#endif  // TSAD_COMMON_STATUS_H_
