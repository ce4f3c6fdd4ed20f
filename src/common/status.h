// Status and Result<T>: exception-free error propagation for the public API.
//
// Modeled on the conventions used by Apache Arrow and RocksDB: functions that
// can fail return a Status (or a Result<T> when they also produce a value),
// and callers propagate failures with GMP_RETURN_NOT_OK / GMP_ASSIGN_OR_RETURN.
// A Status carries an error code and a human-readable message; the OK status
// is cheap to create and copy.

#ifndef GMPSVM_COMMON_STATUS_H_
#define GMPSVM_COMMON_STATUS_H_

#include <cassert>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <variant>

namespace gmpsvm {

// Broad category of a failure. Kept deliberately small; the message carries
// the detail.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfMemory,      // simulated device memory budget exceeded
  kIoError,          // file read/write/parse failures
  kNotImplemented,
  kFailedPrecondition,
  kInternal,           // invariant violation inside the library
  kResourceExhausted,  // bounded queue / admission-control rejection
  kDeadlineExceeded,   // request deadline passed before completion
  kUnavailable,        // transient failure (injected fault); safe to retry
};

// Returns a stable lowercase name for `code`, e.g. "invalid-argument".
const char* StatusCodeToString(StatusCode code);

// A Status is either OK (no payload, no allocation) or an error with a code
// and message. Copyable and movable; moving from a Status leaves it OK.
class Status {
 public:
  // Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message) {
    assert(code != StatusCode::kOk);
    rep_ = std::make_shared<Rep>(Rep{code, std::move(message)});
  }

  static Status OK() { return Status(); }

  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  static Status OutOfMemory(std::string message) {
    return Status(StatusCode::kOutOfMemory, std::move(message));
  }
  static Status IoError(std::string message) {
    return Status(StatusCode::kIoError, std::move(message));
  }
  static Status NotImplemented(std::string message) {
    return Status(StatusCode::kNotImplemented, std::move(message));
  }
  static Status FailedPrecondition(std::string message) {
    return Status(StatusCode::kFailedPrecondition, std::move(message));
  }
  static Status Internal(std::string message) {
    return Status(StatusCode::kInternal, std::move(message));
  }
  static Status ResourceExhausted(std::string message) {
    return Status(StatusCode::kResourceExhausted, std::move(message));
  }
  static Status DeadlineExceeded(std::string message) {
    return Status(StatusCode::kDeadlineExceeded, std::move(message));
  }
  static Status Unavailable(std::string message) {
    return Status(StatusCode::kUnavailable, std::move(message));
  }

  bool ok() const { return rep_ == nullptr; }
  // Itself, so generic code reads a Status and a Result<T> alike.
  const Status& status() const { return *this; }
  StatusCode code() const { return rep_ ? rep_->code : StatusCode::kOk; }
  const std::string& message() const {
    static const std::string kEmpty;
    return rep_ ? rep_->message : kEmpty;
  }

  bool IsInvalidArgument() const { return code() == StatusCode::kInvalidArgument; }
  bool IsOutOfMemory() const { return code() == StatusCode::kOutOfMemory; }
  bool IsIoError() const { return code() == StatusCode::kIoError; }
  bool IsNotImplemented() const { return code() == StatusCode::kNotImplemented; }
  bool IsFailedPrecondition() const {
    return code() == StatusCode::kFailedPrecondition;
  }
  bool IsInternal() const { return code() == StatusCode::kInternal; }
  bool IsResourceExhausted() const {
    return code() == StatusCode::kResourceExhausted;
  }
  bool IsDeadlineExceeded() const {
    return code() == StatusCode::kDeadlineExceeded;
  }
  bool IsUnavailable() const { return code() == StatusCode::kUnavailable; }

  // "OK" or "<code>: <message>".
  std::string ToString() const;

  // Returns a copy of this status with `context` prepended to the message.
  // OK statuses are returned unchanged.
  Status WithContext(const std::string& context) const;

 private:
  struct Rep {
    StatusCode code;
    std::string message;
  };
  // Shared so copies are cheap; never mutated after construction.
  std::shared_ptr<const Rep> rep_;
};

// Result<T> holds either a value of type T or an error Status. Use
// GMP_ASSIGN_OR_RETURN to unwrap in functions that themselves return
// Status/Result.
template <typename T>
class [[nodiscard]] Result {
 public:
  // Intentionally implicit so `return value;` and `return status;` both work.
  Result(T value) : rep_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : rep_(std::move(status)) {  // NOLINT(runtime/explicit)
    assert(!std::get<Status>(rep_).ok() && "Result constructed from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(rep_); }

  const Status& status() const {
    static const Status kOk;
    return ok() ? kOk : std::get<Status>(rep_);
  }

  // Precondition: ok().
  const T& value() const& {
    assert(ok());
    return std::get<T>(rep_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(rep_);
  }
  T&& value() && {
    assert(ok());
    return std::move(std::get<T>(rep_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  // Returns the value or `fallback` if this Result holds an error.
  T ValueOr(T fallback) const& { return ok() ? value() : std::move(fallback); }

 private:
  std::variant<T, Status> rep_;
};

namespace internal {
// Token-pasting helpers so the macros below create unique temporaries.
#define GMP_CONCAT_IMPL(x, y) x##y
#define GMP_CONCAT(x, y) GMP_CONCAT_IMPL(x, y)
}  // namespace internal

// Evaluates `expr` (a Status expression); returns it from the enclosing
// function if it is not OK.
#define GMP_RETURN_NOT_OK(expr)                        \
  do {                                                 \
    ::gmpsvm::Status gmp_status_ = (expr);             \
    if (!gmp_status_.ok()) return gmp_status_;         \
  } while (false)

// Evaluates `rexpr` (a Result<T> expression); on error returns the Status,
// otherwise moves the value into `lhs` (which may include a declaration,
// e.g. `GMP_ASSIGN_OR_RETURN(auto m, LoadModel(path));`).
#define GMP_ASSIGN_OR_RETURN_IMPL(result_name, lhs, rexpr) \
  auto result_name = (rexpr);                              \
  if (!result_name.ok()) return result_name.status();      \
  lhs = std::move(result_name).value()

#define GMP_ASSIGN_OR_RETURN(lhs, rexpr) \
  GMP_ASSIGN_OR_RETURN_IMPL(GMP_CONCAT(gmp_result_, __LINE__), lhs, rexpr)

// Aborts with a message if `expr` is not OK. For use in tests, examples and
// benchmarks where an error is a bug.
#define GMP_CHECK_OK(expr)                                              \
  do {                                                                  \
    ::gmpsvm::Status gmp_status_ = (expr);                              \
    if (!gmp_status_.ok()) {                                            \
      ::gmpsvm::internal::DieOfStatus(gmp_status_, __FILE__, __LINE__); \
    }                                                                   \
  } while (false)

namespace internal {
[[noreturn]] void DieOfStatus(const Status& status, const char* file, int line);
}  // namespace internal

// Unwraps a Result<T> in contexts that cannot propagate (tests, examples).
// Aborts on error.
template <typename T>
T ValueOrDie(Result<T> result, const char* file = __FILE__, int line = __LINE__) {
  if (!result.ok()) internal::DieOfStatus(result.status(), file, line);
  return std::move(result).value();
}

}  // namespace gmpsvm

#endif  // GMPSVM_COMMON_STATUS_H_
