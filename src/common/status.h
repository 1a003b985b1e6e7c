// Status and Result<T>: exception-free error propagation for the gamma
// library. Modeled on the Arrow/Abseil idiom: functions that can fail
// return a Status (or Result<T> when they also produce a value); callers
// must check ok() before using the value.
#ifndef GAMMA_COMMON_STATUS_H_
#define GAMMA_COMMON_STATUS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>

namespace gammadb {

/// Machine-readable classification of a failure.
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kAlreadyExists,
  kResourceExhausted,  // e.g. simulated memory or disk exhausted
  kFailedPrecondition,
  kInternal,
  kNotImplemented,
  kUnavailable,  // transient failure that exhausted its retry budget
  kAborted,      // operation aborted mid-flight (e.g. a node crash)
};

/// Returns the canonical spelling of a status code ("OK", "InvalidArgument"...).
const char* StatusCodeToString(StatusCode code);

/// A success-or-error value. Cheap to copy in the success case (no
/// allocation); failures carry a code and a human-readable message.
///
/// [[nodiscard]]: silently dropping a Status hides exactly the failures
/// the fault-injection path (docs/fault_injection.md) exists to surface.
/// A deliberate discard must say so via IgnoreError() — `(void)` casts
/// are rejected by gamma_lint (docs/static_analysis.md).
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : rep_(code == StatusCode::kOk
                 ? nullptr
                 : std::make_shared<Rep>(Rep{code, std::move(message)})) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }

  bool ok() const { return rep_ == nullptr; }
  StatusCode code() const { return rep_ ? rep_->code : StatusCode::kOk; }
  const std::string& message() const {
    static const std::string kEmpty;
    return rep_ ? rep_->message : kEmpty;
  }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

  /// Documents a deliberate discard of the status (e.g. a phase abort
  /// surfaced on a path that is outside the recovery scope).
  void IgnoreError() const {}

  /// Keep-first-error: adopts `other` only while this status is OK (the
  /// Abseil spelling). Rounds that must run to completion after a
  /// failure fold every step's status through this.
  void Update(const Status& other) {
    if (ok()) *this = other;
  }

  bool operator==(const Status& other) const {
    return code() == other.code() && message() == other.message();
  }

 private:
  struct Rep {
    StatusCode code;
    std::string message;
  };
  std::shared_ptr<const Rep> rep_;  // null == OK
};

/// A value of type T or a failure Status. The value is only accessible
/// when status().ok().
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit from value and from Status so `return value;` and
  /// `return Status::...;` both work (matching Arrow's Result<T>).
  Result(T value) : rep_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status)                        // NOLINT(google-explicit-constructor)
      : rep_(std::move(status)) {}

  bool ok() const { return std::holds_alternative<T>(rep_); }

  Status status() const {
    return ok() ? Status::OK() : std::get<Status>(rep_);
  }

  /// Requires ok(). Undefined behaviour otherwise (checked in debug builds).
  const T& value() const& { return std::get<T>(rep_); }
  T& value() & { return std::get<T>(rep_); }
  T&& value() && { return std::get<T>(std::move(rep_)); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value, or `fallback` if this holds an error.
  T value_or(T fallback) const {
    return ok() ? value() : std::move(fallback);
  }

 private:
  std::variant<Status, T> rep_;
};

}  // namespace gammadb

/// Propagates a non-OK Status to the caller. The canonical spelling for
/// status-check boilerplate: `Status s = ...; if (!s.ok()) return s;`
/// hand-rolled at call sites is flagged in review, and silent drops are
/// rejected by [[nodiscard]] plus gamma_lint (docs/static_analysis.md).
#define GAMMA_RETURN_IF_ERROR(expr)               \
  do {                                            \
    ::gammadb::Status _st = (expr);                 \
    if (!_st.ok()) return _st;                    \
  } while (0)

/// Evaluates a Result<T> expression, propagating failure, else binds `lhs`.
#define GAMMA_ASSIGN_OR_RETURN(lhs, rexpr)        \
  GAMMA_ASSIGN_OR_RETURN_IMPL_(                   \
      GAMMA_CONCAT_(_result_, __LINE__), lhs, rexpr)

#define GAMMA_CONCAT_INNER_(a, b) a##b
#define GAMMA_CONCAT_(a, b) GAMMA_CONCAT_INNER_(a, b)
#define GAMMA_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                 \
  if (!tmp.ok()) return tmp.status();                 \
  lhs = std::move(tmp).value();

#endif  // GAMMA_COMMON_STATUS_H_
