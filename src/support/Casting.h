//===- support/Casting.h - LLVM-style isa/cast/dyn_cast ---------*- C++ -*-===//
///
/// \file
/// Hand-rolled RTTI in the LLVM style. Class hierarchies opt in by providing
/// a static `bool classof(const Base *)` predicate; `isa<>`, `cast<>`, and
/// `dyn_cast<>` dispatch through it without requiring C++ RTTI.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_SUPPORT_CASTING_H
#define SPF_SUPPORT_CASTING_H

#include <cassert>
#include <type_traits>

namespace spf {

/// Returns true if \p Val is an instance of \p To (or a subclass of it).
template <typename To, typename From> bool isa(const From *Val) {
  assert(Val && "isa<> used on a null pointer");
  return To::classof(Val);
}

/// Checked downcast: asserts that \p Val really is a \p To.
template <typename To, typename From> To *cast(From *Val) {
  assert(isa<To>(Val) && "cast<> argument of incompatible type");
  return static_cast<To *>(Val);
}

/// Checked downcast, const overload.
template <typename To, typename From> const To *cast(const From *Val) {
  assert(isa<To>(Val) && "cast<> argument of incompatible type");
  return static_cast<const To *>(Val);
}

/// Checking downcast: returns null when \p Val is not a \p To.
template <typename To, typename From> To *dyn_cast(From *Val) {
  return isa<To>(Val) ? static_cast<To *>(Val) : nullptr;
}

/// Checking downcast, const overload.
template <typename To, typename From> const To *dyn_cast(const From *Val) {
  return isa<To>(Val) ? static_cast<const To *>(Val) : nullptr;
}

} // namespace spf

#endif // SPF_SUPPORT_CASTING_H
