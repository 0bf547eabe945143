//===- perfbench/Traced.h - Layer-by-layer runs of one operation ----------===//
///
/// \file
/// Re-runs one sweep cell, or compiles one world, by calling each layer's
/// public API from here instead of through workloads::runWorkload, so
/// every call can be timed on its own:
///
///   WorkloadSpec::Build            -> workloads
///   jit::CompileManager::compile   -> jit (stage times) and core (pass)
///   exec::Interpreter::run over a sim::CountingSink -> exec
///   sim::MemorySystem constructor  -> sim
///   exec::Interpreter::run over a sim::MemorySystem, on a fresh identical
///   world                          -> sim (minus the CountingSink run)
///   vm::GarbageCollector::collect  -> vm (epoch boundaries)
///
/// A governed cell (RunOptions::Governor) can only be driven through
/// runWorkload's epoch loop; it is timed whole as workloads.governed_s.
/// With a null ledger the same code runs untraced.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACED_H
#define PERFBENCH_TRACED_H

#include "Ledger.h"
#include "Oracle.h"

#include "harness/Experiment.h"

namespace perfbench {

/// The reference-pinned quantities of one finished cell.
Fingerprint cellFingerprint(const spf::workloads::RunResult &R);

/// Outcome of tracing one cell.
struct TracedCell {
  Fingerprint Print;
  spf::sim::MemoryStats Mem;
  bool VerifyOk = true;
};

/// Runs \p Cell layer by layer (see the file comment), booking times and
/// counts into \p L when it is non-null.
TracedCell traceCell(const spf::harness::ExperimentCell &Cell, Ledger *L);

/// One world compiled under one pass configuration.
struct CompiledWorld {
  Fingerprint Print;
  unsigned Methods = 0;
  unsigned VerifyFailures = 0;
  double BuildS = 0;      ///< Wall time of WorkloadSpec::Build.
  double CompileS = 0;    ///< Wall time of all CompileManager::compile calls.
  double CompileCpuS = 0; ///< Process CPU time of the same calls.
};

/// Builds a fresh world of \p Spec and compiles every compile unit under
/// \p Algo's pass options for \p Machine. Wall and CPU times are measured
/// always; spans and per-layer totals go to \p L when it is non-null.
CompiledWorld compileWorld(const spf::workloads::WorkloadSpec &Spec,
                           const spf::workloads::WorkloadConfig &Cfg,
                           const spf::sim::MachineConfig &Machine,
                           spf::workloads::Algorithm Algo, Ledger *L);

} // namespace perfbench

#endif // PERFBENCH_TRACED_H
