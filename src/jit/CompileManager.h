//===- jit/CompileManager.h - The JIT compile pipeline ----------*- C++ -*-===//
///
/// \file
/// The compilation pipeline of the simulated JVM. The paper's JIT compiles
/// a method at an invocation, so actual argument values are on hand for
/// object inspection; here each executed method is compiled before its
/// run with the arguments of its first invocation. The pipeline runs the
/// conventional optimizations (verification, constant folding, local CSE,
/// DCE, CFG/loop/def-use analyses) and then, optionally, the stride
/// prefetching pass. Wall-clock time of each stage is recorded: Figure 11
/// reports the prefetch pass's additional time over the total JIT
/// compilation time.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_JIT_COMPILEMANAGER_H
#define SPF_JIT_COMPILEMANAGER_H

#include "analysis/DefUse.h"
#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "core/PrefetchPass.h"
#include "support/Status.h"

#include <memory>

namespace spf {
namespace jit {

/// Per-method stage timings in microseconds.
struct CompileTimings {
  double VerifyUs = 0;
  double CleanupUs = 0;  ///< Constant folding + CSE + DCE.
  double AnalysisUs = 0; ///< Dominators + loops + def-use.
  double BackendUs = 0;  ///< Liveness + register allocation.
  double PrefetchUs = 0; ///< The stride prefetching pass only.

  double baselineUs() const {
    return VerifyUs + CleanupUs + AnalysisUs + BackendUs;
  }
  double totalUs() const { return baselineUs() + PrefetchUs; }
};

/// Outcome of compiling one method.
struct CompileResult {
  ir::Method *M = nullptr;
  /// Pre-compile verification outcome. A method that arrives malformed is
  /// left as-is (the original IR keeps executing) rather than taking the
  /// VM down — the production-JIT bailout.
  support::Status VerifyStatus = support::Status::success();
  CompileTimings Timings;
  core::PrefetchPassResult Prefetch;
  unsigned Folded = 0;
  unsigned CseRemoved = 0;
  unsigned DceRemoved = 0;
  unsigned Spills = 0;      ///< Linear-scan spill count.
  unsigned MaxPressure = 0; ///< Peak register pressure.
};

/// The analyses the prefetch pass reads. Inserting or removing prefetch
/// code keeps them valid: it adds no block, edge or load.
struct MethodAnalyses {
  explicit MethodAnalyses(ir::Method *M) : DT(M), LI(M, DT), DU(M) {}
  analysis::DominatorTree DT;
  analysis::LoopInfo LI;
  analysis::DefUse DU;
};

/// Drives compilation of methods and aggregates pipeline timing.
class CompileManager {
public:
  struct Options {
    bool EnablePrefetch = true;
    core::PrefetchPassOptions Pass;

    bool operator==(const Options &) const = default;
  };

  CompileManager(const vm::Heap &Heap, Options Opts)
      : Heap(Heap), Opts(std::move(Opts)) {}

  /// Compiles \p M with compile-time argument values \p Args: prepare,
  /// runPass and record. A method failing *pre*-compile verification is
  /// skipped recoverably (see CompileResult::VerifyStatus); failing
  /// verification *after* the prefetch pass still aborts — that is our
  /// codegen bug, not an input error, and must never reach execution.
  CompileResult compile(ir::Method *M, const std::vector<uint64_t> &Args);

  /// compile()'s conventional stages on \p M (verification, cleanup,
  /// analyses, backend), timed into \p Result. They read no option, so
  /// one preparation serves the pass under any options. Null when \p M
  /// fails verification: it is left as it is.
  static std::unique_ptr<MethodAnalyses> prepare(ir::Method *M,
                                                 CompileResult &Result);

  /// compile()'s last stage on a prepared \p M: the prefetch pass, when
  /// this manager's options enable it, timed into \p Result.
  void runPass(ir::Method *M, const std::vector<uint64_t> &Args,
               const MethodAnalyses &A, CompileResult &Result);

  /// Adds \p Result to the totals and the aggregate, and logs a
  /// verification bailout to the active decision log.
  void record(const CompileResult &Result);

  /// Aggregate timings across everything compiled so far.
  double totalJitUs() const { return TotalJitUs; }
  double prefetchUs() const { return PrefetchUs; }
  const core::PrefetchPassResult &aggregatePrefetch() const {
    return Aggregate;
  }

private:
  const vm::Heap &Heap;
  Options Opts;
  double TotalJitUs = 0;
  double PrefetchUs = 0;
  core::PrefetchPassResult Aggregate;
};

} // namespace jit
} // namespace spf

#endif // SPF_JIT_COMPILEMANAGER_H
