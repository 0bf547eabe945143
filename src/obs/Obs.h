//===- obs/Obs.h - Observability master switch ------------------*- C++ -*-===//
///
/// \file
/// Compile-time and runtime gating for the observability subsystem
/// (Tracer, DecisionLog). The CMake option SPF_OBSERVABILITY (default
/// ON) defines SPF_OBS to 0 to compile every hook out; at runtime the
/// SPF_OBS environment variable (default 1) disables the hooks without a
/// rebuild. Either way the simulated statistics must be bit-identical —
/// observability may time, count and explain, never perturb.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_OBS_OBS_H
#define SPF_OBS_OBS_H

/// Compile-time master switch; the CMake option SPF_OBSERVABILITY
/// (default ON) defines it to 0 to compile the hooks out.
#ifndef SPF_OBS
#define SPF_OBS 1
#endif

namespace spf {
namespace obs {

/// True when the library was built with the hooks compiled in.
constexpr bool compiledIn() {
#if SPF_OBS
  return true;
#else
  return false;
#endif
}

/// True when observability hooks should run: compiled in, and the
/// SPF_OBS environment knob (default 1) is nonzero. Cached after the
/// first call; tests override with setEnabled().
bool enabled();

/// Test-only override of the runtime switch (no effect when the hooks
/// are compiled out).
void setEnabled(bool On);

} // namespace obs
} // namespace spf

#endif // SPF_OBS_OBS_H
