//===- jit/CompileManager.cpp ---------------------------------------------===//

#include "jit/CompileManager.h"

#include "ir/Verifier.h"
#include "obs/DecisionLog.h"
#include "obs/Tracer.h"
#include "opt/ConstantFolding.h"
#include "opt/DeadCodeElim.h"
#include "opt/LinearScan.h"
#include "opt/LocalCSE.h"
#include "support/ErrorHandling.h"

#include <chrono>

using namespace spf;
using namespace spf::jit;

namespace {

using Clock = std::chrono::steady_clock;

double microsSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - Start)
      .count();
}

} // namespace

CompileResult CompileManager::compile(ir::Method *M,
                                      const std::vector<uint64_t> &Args) {
  CompileResult Result;
  Result.M = M;

  obs::Span CompileSpan("compile", "jit");
  CompileSpan.note("method", M->name());

  // Stage 1: verification. A malformed input method is a bailout, not a
  // crash: the method simply stays uncompiled this time around.
  auto T0 = Clock::now();
  bool Verified;
  {
    obs::Span S("verify", "jit");
    Verified = ir::verifyMethod(M);
  }
  if (!Verified) {
    Result.VerifyStatus = support::Status::error(
        "method failed verification before compilation");
    Result.Timings.VerifyUs = microsSince(T0);
    TotalJitUs += Result.Timings.totalUs();
    if (auto *DL = obs::DecisionScope::current()) {
      DL->setContext(M->name(), 0);
      DL->event("pipeline", "verify-bailout", "",
                "method failed verification before compilation; left "
                "uncompiled");
    }
    return Result;
  }
  Result.Timings.VerifyUs = microsSince(T0);

  // Stage 2: conventional cleanup optimizations.
  auto T1 = Clock::now();
  {
    obs::Span S("cleanup", "jit");
    Result.Folded = opt::foldConstants(M);
    Result.CseRemoved = opt::localCSE(M);
    Result.DceRemoved = opt::eliminateDeadCode(M);
  }
  Result.Timings.CleanupUs = microsSince(T1);

  // Stage 3: CFG, dominator, loop, and def-use analyses (shared by the
  // baseline pipeline; the prefetch pass reuses them).
  auto T2 = Clock::now();
  M->recomputePreds();
  obs::Span AnalysisSpan("analysis", "jit");
  analysis::DominatorTree DT(M);
  analysis::LoopInfo LI(M, DT);
  analysis::DefUse DU(M);
  AnalysisSpan.end();
  Result.Timings.AnalysisUs = microsSince(T2);

  // Stage 4: backend — live-variable analysis and linear-scan register
  // allocation over the seven usable IA-32 integer registers.
  auto T3 = Clock::now();
  {
    obs::Span S("backend", "jit");
    opt::Liveness LV(M);
    opt::AllocationResult RA = opt::allocateRegisters(M, LV);
    Result.Spills = RA.Spills;
    Result.MaxPressure = RA.MaxPressure;
  }
  Result.Timings.BackendUs = microsSince(T3);

  // Stage 5: stride prefetching (the paper's pass).
  if (Opts.EnablePrefetch) {
    auto T4 = Clock::now();
    obs::Span PrefetchSpan("prefetch-pass", "jit");
    PrefetchSpan.note("method", M->name());
    core::PrefetchPass Pass(Heap, Opts.Pass);
    Result.Prefetch = Pass.run(M, Args, LI, DU);
    PrefetchSpan.noteU64("loops", Result.Prefetch.LoopsVisited);
    PrefetchSpan.noteU64("prefetches", Result.Prefetch.CodeGen.Prefetches);
    PrefetchSpan.end();
    Result.Timings.PrefetchUs = microsSince(T4);

    if (!ir::verifyMethod(M))
      reportFatalError("method failed verification after prefetch pass");
  }

  TotalJitUs += Result.Timings.totalUs();
  PrefetchUs += Result.Timings.PrefetchUs;
  Aggregate.LoopsVisited += Result.Prefetch.LoopsVisited;
  Aggregate.LoopsSkippedSmallTrip += Result.Prefetch.LoopsSkippedSmallTrip;
  Aggregate.LoopsNotReached += Result.Prefetch.LoopsNotReached;
  Aggregate.LoopsDegraded += Result.Prefetch.LoopsDegraded;
  Aggregate.CodeGen.Prefetches += Result.Prefetch.CodeGen.Prefetches;
  Aggregate.CodeGen.SpecLoads += Result.Prefetch.CodeGen.SpecLoads;
  for (const auto &LR : Result.Prefetch.Loops)
    Aggregate.Loops.push_back(LR);

  return Result;
}
