//===- workloads/Runner.cpp -----------------------------------------------===//

#include "workloads/Runner.h"

#include "core/PrefetchCodeGen.h"
#include "obs/Obs.h"
#include "obs/StatRegistry.h"
#include "obs/Tracer.h"
#include "workloads/ProgramPopulation.h"

#include <cassert>
#include <chrono>
#include <cstdio>
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

/// Forwards every event to each member's sink, in member order: the
/// fan-out of one shared execution. Every member sees exactly the stream
/// a solo run would have given it (AccessSink's write-only contract).
class FanOutSink final : public exec::AccessSink {
public:
  explicit FanOutSink(std::vector<exec::AccessSink *> Sinks)
      : Sinks(std::move(Sinks)) {}

  void tick(uint64_t N) override {
    for (exec::AccessSink *S : Sinks)
      S->tick(N);
  }
  void load(uint64_t Addr, exec::SiteId Site) override {
    for (exec::AccessSink *S : Sinks)
      S->load(Addr, Site);
  }
  void store(uint64_t Addr) override {
    for (exec::AccessSink *S : Sinks)
      S->store(Addr);
  }
  void prefetch(uint64_t Addr) override {
    for (exec::AccessSink *S : Sinks)
      S->prefetch(Addr);
  }
  void guardedLoad(uint64_t Addr) override {
    for (exec::AccessSink *S : Sinks)
      S->guardedLoad(Addr);
  }
  void guardedLoadFault() override {
    for (exec::AccessSink *S : Sinks)
      S->guardedLoadFault();
  }
  void prefetch(uint64_t Addr, exec::SiteId Site) override {
    for (exec::AccessSink *S : Sinks)
      S->prefetch(Addr, Site);
  }
  void guardedLoad(uint64_t Addr, exec::SiteId Site) override {
    for (exec::AccessSink *S : Sinks)
      S->guardedLoad(Addr, Site);
  }
  void guardedLoadFault(exec::SiteId Site) override {
    for (exec::AccessSink *S : Sinks)
      S->guardedLoadFault(Site);
  }

private:
  std::vector<exec::AccessSink *> Sinks;
};

/// The timing side of one group member: its machine, plus the timeline
/// sampler in front of it when the member samples one.
struct MemberSim {
  sim::MemorySystem Mem;
  std::optional<obs::TimelineSampler> Sampler;

  explicit MemberSim(const RunOptions &Opts) : Mem(Opts.Machine) {
    if (Opts.TimelineEvery)
      Sampler.emplace(Mem, Opts.TimelineEvery);
  }
  exec::AccessSink &sink() {
    if (Sampler)
      return *Sampler;
    return Mem;
  }
};

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

std::vector<RunResult>
workloads::runWorkloadGroup(const WorkloadSpec &Spec,
                            std::span<const RunOptions> Members) {
  assert(!Members.empty());
  const RunOptions &Opts = Members.front();
  assert(!Opts.Governor || Members.size() == 1);
  RunResult Result;

  obs::Span RunSpan("run-workload", "runner");
  RunSpan.note("workload", Spec.Name);
  RunSpan.note("algorithm", algorithmName(Opts.Algo));
  RunSpan.noteU64("members", Members.size());

  obs::Span BuildSpan("build-workload", "runner");
  BuiltWorkload W = Spec.Build(Opts.Config);
  BuildSpan.end();

  // JIT-compile the hot methods with their first-invocation arguments.
  // Every member shares these pass options: the execution signature
  // keys exactly the machine facets passOptionsFor reads. The decision
  // log records here, at compile time, and is detached before the
  // simulated (timed) execution below — observability never runs inside
  // the timed region.
  jit::CompileManager::Options CM;
  CM.EnablePrefetch = Opts.Algo != Algorithm::Baseline;
  CM.Pass = passOptionsFor(Opts.Machine, Opts.Algo == Algorithm::Inter
                                             ? core::PrefetchMode::Inter
                                             : core::PrefetchMode::InterIntra);
  if (Opts.TunePass)
    Opts.TunePass(CM.Pass);
  jit::CompileManager Jit(*W.Heap, CM);
  obs::DecisionLog Log;
  {
    std::optional<obs::DecisionScope> Scope;
    if (obs::enabled())
      Scope.emplace(Log);
    obs::Span JitSpan("jit", "runner");
    for (const CompileUnit &CU : W.CompileUnits)
      Jit.compile(CU.M, CU.Args);
    JitSpan.end();
  }

  // Execute once, simulating on every member's machine. A deque keeps
  // each MemorySystem at a fixed address for its sampler.
  std::deque<MemberSim> Sims;
  std::vector<exec::AccessSink *> Sinks;
  for (const RunOptions &M : Members)
    Sinks.push_back(&Sims.emplace_back(M).sink());
  std::optional<FanOutSink> FanOut;
  exec::AccessSink *Sink = Sinks.front();
  if (Sinks.size() > 1)
    Sink = &FanOut.emplace(Sinks);
  sim::MemorySystem &Mem = Sims.front().Mem; // The governor's evidence.
  unsigned Epochs = Opts.Epochs ? Opts.Epochs : 1;
  exec::Interpreter Interp(*W.Heap, *Sink, &W.Roots);
  if (Opts.TimeoutSeconds > 0.0)
    Interp.setDeadline(Opts.TimeoutSeconds);
  Interp.gc().setVariant(Opts.GcVariant, Opts.Config.Seed);
  if (Opts.Governor) {
    Mem.enablePrefetchHealth();
    Interp.enablePrefetchGovernance();
  }
  opt::Governor Gov(Opts.GovernorCfg);

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
    for (MemberSim &S : Sims)
      if (S.Sampler)
        S.Sampler->boundary();

    if (Opts.PhaseChange && E == (Epochs + 1) / 2)
      applyPhaseChange(*W.Heap, Opts.Config.Seed);

    if (Opts.Governor) {
      // Governor re-decisions run between epochs — outside the timed
      // interpretation, like everything else that records decisions.
      std::optional<obs::DecisionScope> Scope;
      if (obs::enabled())
        Scope.emplace(Log);
      for (const opt::GovernorDecision &D :
           Gov.endEpoch(Mem.siteStats())) {
        switch (D.Action) {
        case opt::GovernorAction::Retune: {
          exec::Interpreter::PrefetchControl C;
          C.ExtraDistance = D.ExtraDistance;
          Interp.setPrefetchControl(D.Site, C);
          break;
        }
        case opt::GovernorAction::Quarantine: {
          exec::Interpreter::PrefetchControl C;
          C.Suppress = true;
          Interp.setPrefetchControl(D.Site, C);
          break;
        }
        case opt::GovernorAction::Reinspect:
          // Strip every unit's prefetch code and re-run the pipeline
          // against the *current* (post-GC) heap layout.
          for (const CompileUnit &CU : W.CompileUnits) {
            core::CodeGenStats Stripped = core::stripPrefetchCode(*CU.M);
            if (Stripped.Prefetches || Stripped.SpecLoads)
              Jit.compile(CU.M, CU.Args);
          }
          Interp.clearPrefetchControls();
          Interp.invalidateMethodInfo();
          Gov.noteReinspected(Mem.siteStats());
          break;
        case opt::GovernorAction::Keep:
          break;
        }
      }
    }
    Interp.run(W.Entry, W.EntryArgs);
  }
  Result.InterpretUs = elapsedUs(Start);
  SimSpan.end();

  // JIT totals are harvested after execution: governor re-inspection
  // re-compiles mid-run and its time belongs in the Figure 11 totals.
  Result.JitTotalUs = Jit.totalJitUs();
  Result.JitPrefetchUs = Jit.prefetchUs();
  Result.Prefetch = Jit.aggregatePrefetch();
  Result.Decisions = Log.take();

  Result.Retired = Interp.stats().Retired;
  Result.Exec = Interp.stats();
  Result.Epochs = Epochs;
  Result.GcCollections = Interp.gc().collectionCount();
  Result.GovernorQuarantined = Gov.quarantinedSites();
  Result.GovernorRetunes = Gov.retunesApplied();
  Result.GovernorReinspections = Gov.reinspections();
  // Self-check uses epoch 0's return value (captured above): later
  // epochs legitimately diverge once the phase change reorders data.
  if (W.Expected)
    Result.SelfCheckOk = Result.ReturnValue == *W.Expected;

  // Stats are harvested after the timed region.
  if (obs::enabled()) {
    obs::StatRegistry &S = obs::stats();
    S.counter("spf_runs_total").inc();
    S.counter("spf_prefetches_emitted_total")
        .inc(Result.Prefetch.CodeGen.Prefetches);
    S.counter("spf_spec_loads_emitted_total")
        .inc(Result.Prefetch.CodeGen.SpecLoads);
    S.counter("spf_loops_visited_total").inc(Result.Prefetch.LoopsVisited);
    S.counter("spf_loops_degraded_total").inc(Result.Prefetch.LoopsDegraded);
    S.histogram("spf_jit_us").observe(
        static_cast<uint64_t>(Result.JitTotalUs));
    S.histogram("spf_interpret_us")
        .observe(static_cast<uint64_t>(Result.InterpretUs));
  }

  // One result per member: the shared execution side plus the member's
  // own machine statistics.
  std::vector<RunResult> Results;
  for (size_t K = 0; K != Sims.size(); ++K) {
    MemberSim &S = Sims[K];
    RunResult &R = Results.emplace_back(Result);
    if (K) {
      R.Replayed = true;
      R.InterpretUs = 0;
    }
    R.CompiledCycles = S.Mem.cycles();
    R.Mem = S.Mem.stats();
    R.Acct = S.Mem.acct();
    R.Sites = S.Mem.siteStats();
    if (S.Sampler) {
      S.Sampler->finish();
      R.Timeline = S.Sampler->takeSamples();
      obs::emitTimelineCounters(R.Timeline,
                                std::string("timeline:") + Spec.Name);
    }
  }
  return Results;
}

RunResult workloads::runWorkload(const WorkloadSpec &Spec,
                                 const RunOptions &Opts) {
  return std::move(runWorkloadGroup(Spec, {&Opts, 1}).front());
}

std::string workloads::executionSignature(const WorkloadSpec &Spec,
                                          const RunOptions &Opts) {
  // An arbitrary pass mutation cannot be keyed: without a caller-provided
  // stable tag, runs with a TunePass never share an execution.
  if (Opts.TunePass && Opts.TuneKey.empty())
    return std::string();
  // Governor-on runs cannot be keyed either: the re-decisions (suppress /
  // retune / re-JIT) depend on measured per-site health, which depends on
  // the machine's timing — exactly what the signature must exclude. An
  // adaptive run must never share its execution.
  if (Opts.Governor)
    return std::string();

  // Scale is hashed by bit pattern: any representable value keys exactly.
  uint64_t ScaleBits = 0;
  std::memcpy(&ScaleBits, &Opts.Config.Scale, sizeof(ScaleBits));

  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "|scale=%016llx|seed=%016llx|heap=%llx",
                static_cast<unsigned long long>(ScaleBits),
                static_cast<unsigned long long>(Opts.Config.Seed),
                static_cast<unsigned long long>(Opts.Config.HeapBytes));
  std::string Sig = Spec.Name + "|" + algorithmName(Opts.Algo) + Buf;

  // Only the compile-relevant machine facets enter the key (see header
  // comment), derived through passOptionsFor so the signature can never
  // drift from what codegen actually consumes: the fill level's line
  // bytes and the fill-level-derived guarded-load choice. Every other
  // MachineConfig field — level sizes and hit cycles, TLB geometry and
  // walk model, hardware-prefetcher kind/enable — shapes timing only,
  // never the compiled address stream, and must stay out of the key
  // (pinned by the signature-separation tests). BASELINE never runs the
  // planner, so its execution is machine-independent.
  if (Opts.Algo != Algorithm::Baseline) {
    core::PrefetchPassOptions P = passOptionsFor(
        Opts.Machine, Opts.Algo == Algorithm::Inter
                          ? core::PrefetchMode::Inter
                          : core::PrefetchMode::InterIntra);
    std::snprintf(Buf, sizeof(Buf), "|line=%u|guard=%d", P.Planner.LineBytes,
                  P.Planner.GuardedIntraPrefetch ? 1 : 0);
    Sig += Buf;
  }
  if (!Opts.TuneKey.empty())
    Sig += "|tune=" + Opts.TuneKey;
  // Epoch / GC-perturbation facets change the access-event stream for
  // every algorithm (boundary GCs move objects — BASELINE included), so
  // they key unconditionally; defaults add nothing, keeping classic
  // signatures untouched.
  if (Opts.Epochs > 1) {
    std::snprintf(Buf, sizeof(Buf), "|epochs=%u", Opts.Epochs);
    Sig += Buf;
  }
  if (Opts.GcVariant != vm::GcVariant::SlidingCompact)
    Sig += std::string("|gc=") + vm::gcVariantName(Opts.GcVariant);
  if (Opts.PhaseChange)
    Sig += "|phase=1";
  return Sig;
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
