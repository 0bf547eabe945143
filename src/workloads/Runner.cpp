//===- workloads/Runner.cpp -----------------------------------------------===//

#include "workloads/Runner.h"

#include "core/PrefetchCodeGen.h"
#include "ir/IRPrinter.h"
#include "obs/Obs.h"
#include "obs/Tracer.h"
#include "opt/Governor.h"
#include "workloads/ProgramPopulation.h"

#include <cassert>
#include <chrono>
#include <cstring>
#include <deque>
#include <optional>

using namespace spf;
using namespace spf::workloads;

namespace {

double elapsedUs(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

/// Forwards every event to each distinct machine's MemorySystem, in
/// first-member order: the fan-out of one shared execution. Every machine
/// sees exactly the stream a solo run would have given it (AccessSink's
/// write-only contract). MemorySystem is final, so each forward is a
/// direct call.
class FanOutSink final : public exec::AccessSink {
public:
  explicit FanOutSink(std::vector<sim::MemorySystem *> Sims)
      : Sims(std::move(Sims)) {}

  void tick(uint64_t N) override {
    for (sim::MemorySystem *S : Sims)
      S->tick(N);
  }
  void load(uint64_t Addr, exec::SiteId Site) override {
    for (sim::MemorySystem *S : Sims)
      S->load(Addr, Site);
  }
  void store(uint64_t Addr) override {
    for (sim::MemorySystem *S : Sims)
      S->store(Addr);
  }
  void prefetch(uint64_t Addr, exec::SiteId Site) override {
    for (sim::MemorySystem *S : Sims)
      S->prefetch(Addr, Site);
  }
  void guardedLoad(uint64_t Addr, exec::SiteId Site) override {
    for (sim::MemorySystem *S : Sims)
      S->guardedLoad(Addr, Site);
  }
  void guardedLoadFault(exec::SiteId Site) override {
    for (sim::MemorySystem *S : Sims)
      S->guardedLoadFault(Site);
  }

private:
  std::vector<sim::MemorySystem *> Sims;
};

/// JIT-compiles the executed units of \p W with their first-invocation
/// arguments, recording decisions into \p Log when it is non-null and
/// observability is on.
void compileUnits(jit::CompileManager &Jit, const BuiltWorkload &W,
                  obs::DecisionLog *Log) {
  std::optional<obs::DecisionScope> Scope;
  if (Log && obs::enabled())
    Scope.emplace(*Log);
  obs::Span JitSpan("jit", "runner");
  for (const CompileUnit &CU : W.executedUnits())
    Jit.compile(CU.M, CU.Args);
}

} // namespace

const char *workloads::algorithmName(Algorithm A) {
  switch (A) {
  case Algorithm::Baseline:
    return "BASELINE";
  case Algorithm::Inter:
    return "INTER";
  case Algorithm::InterIntra:
    return "INTER+INTRA";
  }
  return "?";
}

core::PrefetchPassOptions
workloads::passOptionsFor(const sim::MachineConfig &M,
                          core::PrefetchMode Mode) {
  core::PrefetchPassOptions Opts;
  Opts.Planner.Mode = Mode;
  Opts.Planner.ScheduleDistance = 1; // Fixed at one iteration (Section 4).
  // The relevant line is the one of the level software prefetches fill:
  // L2 on the Pentium 4 (128 B), L1 on the Athlon MP (64 B).
  Opts.Planner.LineBytes = M.swFillLineBytes();
  // "We used a load instruction guarded by a software exception check for
  //  intra-iteration stride prefetching on the Pentium 4 in order to fill
  //  a missing DTLB entry." Machines whose software prefetches do not
  //  fill the L1 (SwFillLevel > 0) take the guarded-load flavor.
  Opts.Planner.GuardedIntraPrefetch = M.SwFillLevel > 0;
  return Opts;
}

jit::CompileManager::Options
workloads::compileOptionsFor(const RunOptions &Opts) {
  jit::CompileManager::Options CM;
  CM.EnablePrefetch = Opts.Algo != Algorithm::Baseline;
  CM.Pass = passOptionsFor(Opts.Machine, Opts.Algo == Algorithm::Inter
                                             ? core::PrefetchMode::Inter
                                             : core::PrefetchMode::InterIntra);
  if (Opts.TunePass)
    Opts.TunePass(CM.Pass);
  return CM;
}

uint64_t workloads::programHash(const WorkloadSpec &Spec,
                                const WorkloadConfig &Config,
                                const BuiltWorkload &W) {
  // The world inputs and entry args seed the chain of method hashes.
  // Scale is hashed by bit pattern: any representable value keys exactly.
  uint64_t ScaleBits = 0;
  std::memcpy(&ScaleBits, &Config.Scale, sizeof(ScaleBits));
  std::string Inputs = Spec.Name;
  for (uint64_t V : {ScaleBits, Config.Seed, Config.HeapBytes,
                     uint64_t(W.EntryArgs.size())})
    Inputs.append(reinterpret_cast<const char *>(&V), sizeof(V));
  for (uint64_t V : W.EntryArgs)
    Inputs.append(reinterpret_cast<const char *>(&V), sizeof(V));
  uint64_t H = std::hash<std::string>{}(Inputs);
  for (const CompileUnit &CU : W.executedUnits())
    H = ir::hashMethod(CU.M, H);
  return H;
}

CompiledProgram workloads::compileProgram(const WorkloadSpec &Spec,
                                          const RunOptions &Opts) {
  obs::Span BuildSpan("build-workload", "runner");
  BuiltWorkload W = Spec.Build(Opts.Config);
  BuildSpan.end();
  jit::CompileManager Jit(*W.Heap, compileOptionsFor(Opts));
  obs::DecisionLog Log;
  compileUnits(Jit, W, &Log);

  CompiledProgram P;
  P.Hash = programHash(Spec, Opts.Config, W);
  P.Prefetch = Jit.aggregatePrefetch();
  // The log waits in memory until the cell's group runs: drop its
  // growth slack.
  P.Decisions = Log.take();
  P.Decisions.shrink_to_fit();
  return P;
}

CompileTime workloads::measureCompileTime(const WorkloadSpec &Spec,
                                          const RunOptions &Opts) {
  BuiltWorkload W = Spec.Build(Opts.Config);
  jit::CompileManager Jit(*W.Heap, compileOptionsFor(Opts));
  for (const CompileUnit &CU : W.CompileUnits)
    Jit.compile(CU.M, CU.Args);
  return {Jit.totalJitUs(), Jit.prefetchUs()};
}

std::vector<RunResult>
workloads::runWorkloadGroup(const WorkloadSpec &Spec,
                            std::span<const RunOptions> Members,
                            std::vector<CompiledProgram> Compiled) {
  assert(!Members.empty());
  assert(Compiled.empty() || Compiled.size() == Members.size());
  const RunOptions &Opts = Members.front();
  assert(!Opts.Governor || (Members.size() == 1 && Compiled.empty()));
  RunResult Result;

  obs::Span RunSpan("run-workload", "runner");
  RunSpan.note("workload", Spec.Name);
  RunSpan.note("algorithm", algorithmName(Opts.Algo));
  RunSpan.noteU64("members", Members.size());

  obs::Span BuildSpan("build-workload", "runner");
  BuiltWorkload W = Spec.Build(Opts.Config);
  BuildSpan.end();

  // JIT-compile under the leader's options: every member compiles to the
  // same program. The decision log records here, at compile time, unless
  // the members' own compiles already recorded theirs, and is detached
  // before the simulated (timed) execution below — observability never
  // runs inside the timed region.
  jit::CompileManager Jit(*W.Heap, compileOptionsFor(Opts));
  obs::DecisionLog Log;
  compileUnits(Jit, W, Compiled.empty() ? &Log : nullptr);

  // Execute once, simulating once per distinct machine: a MemorySystem is
  // a function of its MachineConfig and its events, so members on equal
  // machines share one. A deque keeps each MemorySystem at a fixed
  // address for the fan-out sink.
  std::deque<sim::MemorySystem> Sims;
  std::vector<sim::MemorySystem *> Ptrs;
  std::vector<size_t> SimOf; // Member -> index into Sims.
  for (const RunOptions &M : Members) {
    size_t I = 0;
    while (I != Sims.size() && !(Sims[I].config() == M.Machine))
      ++I;
    if (I == Sims.size())
      Ptrs.push_back(&Sims.emplace_back(M.Machine));
    SimOf.push_back(I);
  }
  RunSpan.noteU64("simulators", Sims.size());
  std::optional<FanOutSink> FanOut;
  exec::AccessSink *Sink = Ptrs.front();
  if (Ptrs.size() > 1)
    Sink = &FanOut.emplace(std::move(Ptrs));
  sim::MemorySystem &Mem = Sims.front(); // The governor's evidence.
  unsigned Epochs = Opts.Epochs ? Opts.Epochs : 1;
  exec::Interpreter Interp(*W.Heap, *Sink, &W.Roots);
  if (Opts.TimeoutSeconds > 0.0)
    Interp.setDeadline(Opts.TimeoutSeconds);
  Interp.gc().setVariant(Opts.GcVariant, Opts.Config.Seed);
  if (Opts.Governor) {
    Mem.enablePrefetchHealth();
    Interp.enablePrefetchGovernance();
  }
  opt::Governor Gov;

  // Ref-typed argument slots are GC roots across epoch boundaries: entry
  // args are re-run every epoch, and compile-unit args feed governor
  // re-inspection — both must track moved referents.
  auto addRefArgRoots = [](ir::Method *M, std::vector<uint64_t> &Args,
                           std::vector<vm::Addr *> &Roots) {
    for (unsigned I = 0, E = std::min<unsigned>(M->numArgs(),
                                                static_cast<unsigned>(
                                                    Args.size()));
         I != E; ++I)
      if (M->arg(I)->type() == ir::Type::Ref)
        Roots.push_back(&Args[I]);
  };

  obs::Span SimSpan("simulate", "runner");
  SimSpan.note("workload", Spec.Name);
  auto Start = std::chrono::steady_clock::now();
  Result.ReturnValue = Interp.run(W.Entry, W.EntryArgs);
  for (unsigned E = 1; E < Epochs; ++E) {
    // -- Epoch boundary: full GC under the selected placement variant. --
    std::vector<vm::Addr *> Roots;
    for (vm::Addr &Handle : W.Roots)
      Roots.push_back(&Handle);
    addRefArgRoots(W.Entry, W.EntryArgs, Roots);
    for (CompileUnit &CU : W.CompileUnits)
      addRefArgRoots(CU.M, CU.Args, Roots);
    Interp.gc().collect(*W.Heap, Roots);
    Sink->tick(exec::GcPauseTicks); // Same pause the interpreter charges.

    if (Opts.PhaseChange && E == (Epochs + 1) / 2)
      applyPhaseChange(*W.Heap, Opts.Config.Seed);

    if (Opts.Governor) {
      // Governor re-decisions run between epochs — outside the timed
      // interpretation, like everything else that records decisions.
      std::optional<obs::DecisionScope> Scope;
      if (obs::enabled())
        Scope.emplace(Log);
      opt::EpochVerdict V = Gov.endEpoch(Mem.siteStats());
      if (V.Reinspect) {
        // Strip every unit's prefetch code and re-run the pipeline
        // against the *current* (post-GC) heap layout; every quarantine,
        // this epoch's included, is void with the code it suppressed.
        for (const CompileUnit &CU : W.executedUnits()) {
          core::CodeGenStats Stripped = core::stripPrefetchCode(*CU.M);
          if (Stripped.Prefetches || Stripped.SpecLoads)
            Jit.compile(CU.M, CU.Args);
        }
        Interp.clearPrefetchSuppression();
        Interp.invalidateMethodInfo();
        Gov.noteReinspected(Mem.siteStats());
      } else {
        for (exec::SiteId Site : V.Quarantined)
          Interp.suppressPrefetchSite(Site);
      }
    }
    Interp.run(W.Entry, W.EntryArgs);
  }
  Result.InterpretUs = elapsedUs(Start);
  SimSpan.end();

  Result.Prefetch = Jit.aggregatePrefetch();
  Result.Decisions = Log.take();

  Result.Retired = Interp.stats().Retired;
  Result.Exec = Interp.stats();
  Result.Epochs = Epochs;
  Result.GcCollections = Interp.gc().collectionCount();
  Result.GovernorQuarantined = Gov.quarantinedSites();
  Result.GovernorReinspections = Gov.reinspections();
  // Self-check uses epoch 0's return value (captured above): later
  // epochs legitimately diverge once the phase change reorders data.
  if (W.Expected)
    Result.SelfCheckOk = Result.ReturnValue == *W.Expected;

  // One result per member: the shared execution side plus the member's
  // own machine statistics.
  std::vector<RunResult> Results;
  for (size_t K = 0; K != Members.size(); ++K) {
    const sim::MemorySystem &S = Sims[SimOf[K]];
    RunResult &R = Results.emplace_back(Result);
    if (K) {
      R.Replayed = true;
      R.InterpretUs = 0;
    }
    R.CompiledCycles = S.cycles();
    R.Mem = S.stats();
    R.Acct = S.acct();
    R.Sites = S.siteStats();
    if (!Compiled.empty()) {
      CompiledProgram &P = Compiled[K];
      R.Prefetch = std::move(P.Prefetch);
      R.Decisions = std::move(P.Decisions);
    }
  }
  return Results;
}

RunResult workloads::runWorkload(const WorkloadSpec &Spec,
                                 const RunOptions &Opts) {
  return std::move(runWorkloadGroup(Spec, {&Opts, 1}).front());
}

double workloads::totalTime(uint64_t CompiledCycles,
                            uint64_t BaselineCompiledCycles, double F) {
  // Uncompiled (interpreter/runtime) time is unaffected by prefetching and
  // is sized so the baseline's compiled share matches Table 3.
  double Uncompiled =
      static_cast<double>(BaselineCompiledCycles) * (1.0 - F) / F;
  return static_cast<double>(CompiledCycles) + Uncompiled;
}

double workloads::speedupPercent(const RunResult &Base, const RunResult &Opt,
                                 double F) {
  double TBase = totalTime(Base.CompiledCycles, Base.CompiledCycles, F);
  double TOpt = totalTime(Opt.CompiledCycles, Base.CompiledCycles, F);
  return (TBase / TOpt - 1.0) * 100.0;
}
