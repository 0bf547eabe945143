//===- obs/Obs.h - Observability master switch ------------------*- C++ -*-===//
///
/// \file
/// Runtime gating for the observability subsystem (Tracer,
/// DecisionLog): the SPF_OBS environment variable (default 1) disables
/// the hooks without a rebuild. Either way the simulated statistics must
/// be bit-identical — observability may time, count and explain, never
/// perturb.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_OBS_OBS_H
#define SPF_OBS_OBS_H

namespace spf {
namespace obs {

/// True when observability hooks should run: the SPF_OBS environment
/// knob (default 1) is nonzero. Cached after the first call; tests
/// override with setEnabled().
bool enabled();

/// Test-only override of the runtime switch.
void setEnabled(bool On);

} // namespace obs
} // namespace spf

#endif // SPF_OBS_OBS_H
