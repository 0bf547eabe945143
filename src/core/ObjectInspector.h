//===- core/ObjectInspector.h - Section 3.2 ---------------------*- C++ -*-===//
///
/// \file
/// Object inspection: the paper's ultra-lightweight dynamic profiling
/// technique. At JIT-compile time the method is partially interpreted with
/// the actual parameter values and *no side effects*:
///
///  * stores go to a hash table (a copied frame + store buffer), loads
///    consult it first;
///  * allocations land in a private heap;
///  * method invocations are skipped, yielding `unknown`;
///  * loops encountered before the target loop are interpreted once;
///  * the target loop body runs a small number of times (20), recording
///    the first memory address each graph load touches in each iteration.
///
/// Operands that are unavailable are the lattice value `unknown`; any
/// instruction consuming an unknown produces an unknown.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_CORE_OBJECTINSPECTOR_H
#define SPF_CORE_OBJECTINSPECTOR_H

#include "core/LoadDependenceGraph.h"
#include "vm/Heap.h"

#include <string>
#include <unordered_map>

namespace spf {
namespace core {

/// Inspection tuning knobs (paper defaults).
struct InspectorOptions {
  /// Iterations of the target loop to observe ("for example, 20 times").
  unsigned MaxIterations = 20;
  /// Per-entry iteration cap for loops nested inside the target; beyond
  /// this a loop is force-exited (and certainly not "small trip count").
  /// Just above the small-trip threshold: running longer cannot change
  /// any decision but costs interpretation steps.
  unsigned InnerLoopCap = 20;
  /// Per-entry cap for loops encountered before the target: "we interpret
  /// the body of such a loop only once".
  unsigned PreLoopCap = 1;
  /// Interpreted-step budget; inspection aborts (conservatively, with
  /// whatever trace it has) when exceeded. Keeps profiling ultra-light:
  /// inner loops (processed first) need only hundreds of steps; outer
  /// wrappers whose interesting loads were already handled are cut off.
  uint64_t StepBudget = 12000;

  /// Inter-procedural inspection: "we could step into the callee method
  /// for a non-virtual invocation... Making object inspection
  /// inter-procedural might improve the accuracy of our analysis, but it
  /// would increase the compilation time, requiring the trade-off to be
  /// carefully assessed" (Section 3.2). Off by default, per the paper;
  /// the ablation bench measures the trade-off.
  bool FollowCalls = false;
  /// Maximum call depth when FollowCalls is enabled.
  unsigned MaxCallDepth = 2;
};

/// Observed entry/iteration counts of a loop during inspection.
struct TripStats {
  uint64_t Entries = 0;
  uint64_t Iterations = 0;

  double average() const {
    return Entries ? static_cast<double>(Iterations) /
                         static_cast<double>(Entries)
                   : 0.0;
  }
};

/// First address a load accessed in a given target-loop iteration.
struct AddrRecord {
  unsigned Iteration = 0;
  vm::Addr Address = 0;
};

/// Everything object inspection learned about one target loop.
struct InspectionResult {
  bool ReachedTarget = false;
  /// Target-loop iterations started (capped at MaxIterations).
  unsigned IterationsObserved = 0;
  /// The target loop exited before MaxIterations iterations: a direct
  /// small-trip-count observation for the loop itself.
  bool TargetExitedEarly = false;
  uint64_t StepsUsed = 0;

  /// Inspection hit a condition it cannot profile through (malformed IR
  /// such as a block without a terminator). The trace is discarded and
  /// the pass must not prefetch this loop — the production-JIT response
  /// to a broken input, instead of aborting the process.
  bool Degraded = false;
  std::string DegradeReason;

  /// Per graph load: first access address per observed iteration (sparse;
  /// iterations where the address was unknown are absent).
  std::unordered_map<const ir::Instruction *, std::vector<AddrRecord>> Trace;

  /// Entry/iteration counts for loops nested inside the target.
  std::unordered_map<const analysis::Loop *, TripStats> SubLoopTrips;
};

/// Partial interpreter performing object inspection over one method.
class ObjectInspector {
public:
  ObjectInspector(const vm::Heap &Heap, const analysis::LoopInfo &LI,
                  InspectorOptions Opts = InspectorOptions());

  /// Partially interprets \p M (whose compile-time argument values are
  /// \p Args) from its entry, recording addresses for the loads of
  /// \p Graph inside \p TargetLoop.
  InspectionResult inspect(ir::Method *M, const std::vector<uint64_t> &Args,
                           analysis::Loop *TargetLoop,
                           const LoadDependenceGraph &Graph);

private:
  const vm::Heap &Heap;
  const analysis::LoopInfo &LI;
  InspectorOptions Opts;
};

} // namespace core
} // namespace spf

#endif // SPF_CORE_OBJECTINSPECTOR_H
