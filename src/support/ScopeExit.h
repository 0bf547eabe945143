//===- support/ScopeExit.h - Run a callable on scope exit -------*- C++ -*-===//
///
/// \file
/// A scope guard: runs its callable when the scope ends, including by an
/// exception. The interpreter keeps its frame bookkeeping consistent with
/// it when a trap propagates out of a nested call, and a shared execution
/// drains its event buffer with it whether or not a run traps.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_SUPPORT_SCOPEEXIT_H
#define SPF_SUPPORT_SCOPEEXIT_H

namespace spf {

template <typename Fn> struct ScopeExit {
  Fn F;
  ~ScopeExit() { F(); }
};
template <typename Fn> ScopeExit(Fn) -> ScopeExit<Fn>;

} // namespace spf

#endif // SPF_SUPPORT_SCOPEEXIT_H
