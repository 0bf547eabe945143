//===- core/PrefetchPass.h - The stride prefetching pass --------*- C++ -*-===//
///
/// \file
/// The paper's optimization pass. For each method it builds the loop
/// nesting forest, then traverses the loops in postorder (trees in program
/// order); for each loop it (1) constructs the load dependence graph,
/// (2) performs object inspection with the method's actual argument
/// values, (3) annotates stride patterns, and (4) generates prefetching
/// code subject to the profitability analysis. Nested loops observed to
/// have small trip counts are skipped and their loads handled when the
/// parent loop is processed.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_CORE_PREFETCHPASS_H
#define SPF_CORE_PREFETCHPASS_H

#include "core/ObjectInspector.h"
#include "core/PrefetchCodeGen.h"
#include "core/PrefetchPlanner.h"
#include "core/StrideAnalysis.h"

namespace spf {
namespace core {

/// All knobs of the pass; line sizes typically come from a
/// sim::MachineConfig via optionsForMachine().
struct PrefetchPassOptions {
  PlannerOptions Planner;
  InspectorOptions Inspector;
  StrideOptions Stride;
  /// Total interpretation steps across all of a method's loops; keeps the
  /// pass's compile-time share bounded (Figure 11) even for deep nests.
  uint64_t MethodInspectionBudget = 12000;
  /// A loop whose own observed trip count is at most this is not
  /// prefetched directly (its loads are handled by the parent loop).
  double SmallTripMax = 16.0;
};

/// Diagnostic record for one processed loop.
struct LoopReport {
  const analysis::Loop *L = nullptr;
  bool Reached = false;
  bool SkippedSmallTrip = false;
  /// Inspection or planning failed recoverably (malformed IR, invalid
  /// plan): the loop gets no prefetching code.
  bool Degraded = false;
  std::string DegradeReason;
  unsigned IterationsObserved = 0;
  unsigned NodesWithInterStride = 0;
  unsigned EdgesWithIntraStride = 0;
  unsigned PlainPrefetches = 0;
  unsigned SpecLoads = 0;
  unsigned DerefPrefetches = 0;
  unsigned IntraPrefetches = 0;
};

/// Result of running the pass over one method.
struct PrefetchPassResult {
  unsigned LoopsVisited = 0;
  unsigned LoopsSkippedSmallTrip = 0;
  unsigned LoopsNotReached = 0;
  /// Loops abandoned on a recoverable failure ("no prefetch for this
  /// loop"): malformed IR, planner invariant violations.
  unsigned LoopsDegraded = 0;
  CodeGenStats CodeGen;
  std::vector<LoopReport> Loops;
};

/// The stride prefetching pass.
class PrefetchPass {
public:
  PrefetchPass(const vm::Heap &Heap, PrefetchPassOptions Opts)
      : Heap(Heap), Opts(std::move(Opts)) {}

  /// Transforms \p M, whose compile-time (actual) argument values are
  /// \p Args — in a JIT, the method is compiled when about to execute, so
  /// actual parameter values are available (paper, Section 3).
  PrefetchPassResult run(ir::Method *M, const std::vector<uint64_t> &Args);

  /// Same, but reuses loop/def-use analyses the enclosing JIT pipeline
  /// already computed, so only the pass's own cost is added on top of the
  /// baseline compilation (the accounting of Figure 11).
  PrefetchPassResult run(ir::Method *M, const std::vector<uint64_t> &Args,
                         const analysis::LoopInfo &LI,
                         const analysis::DefUse &DU);

private:
  const vm::Heap &Heap;
  PrefetchPassOptions Opts;
};

} // namespace core
} // namespace spf

#endif // SPF_CORE_PREFETCHPASS_H
