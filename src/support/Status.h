//===- support/Status.h - Recoverable-error results -------------*- C++ -*-===//
///
/// \file
/// The recoverable-error layer: `Status` (success or a message) and
/// `Expected<T>` (a value or a `Status`), in the LLVM spirit but without
/// the checked-error machinery. Used by the inspection/planning path to
/// degrade gracefully — "no prefetch for this loop" — instead of calling
/// `reportFatalError` the way invariant violations do.
///
/// Also defines `RuntimeTrap`, the exception the failure-containment
/// layer throws and the harness catches per cell for failures of the
/// *simulated* program (a production VM would raise a runtime exception,
/// not kill the VM process).
///
//===----------------------------------------------------------------------===//

#ifndef SPF_SUPPORT_STATUS_H
#define SPF_SUPPORT_STATUS_H

#include <stdexcept>
#include <string>
#include <utility>

namespace spf {
namespace support {

/// Success, or failure with a human-readable message.
class Status {
public:
  static Status success() { return Status(); }
  static Status error(std::string Msg) {
    Status S;
    S.Success = false;
    S.Msg = std::move(Msg);
    return S;
  }

  bool ok() const { return Success; }
  explicit operator bool() const { return Success; }

  /// The failure message; empty on success.
  const std::string &message() const { return Msg; }

private:
  bool Success = true;
  std::string Msg;
};

/// A value of type \p T or a failure `Status`. Construction from a
/// success status is a programming error (there would be no value).
template <typename T> class Expected {
public:
  Expected(T Value) : Value(std::move(Value)) {}
  Expected(Status Error) : Err(std::move(Error)), HasValue(false) {}

  bool ok() const { return HasValue; }
  explicit operator bool() const { return HasValue; }

  T &operator*() { return Value; }
  const T &operator*() const { return Value; }
  T *operator->() { return &Value; }
  const T *operator->() const { return &Value; }

  /// The failure message; only meaningful when !ok().
  const std::string &error() const { return Err.message(); }
  const Status &status() const { return Err; }

private:
  T Value{};
  Status Err = Status::success();
  bool HasValue = true;
};

/// A recoverable failure of the simulated program itself (null
/// dereference, division by zero, OOM after GC, execution budget): the
/// harness marks the cell failed and keeps the sweep alive.
class RuntimeTrap : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

} // namespace support
} // namespace spf

#endif // SPF_SUPPORT_STATUS_H
