//===- perfbench/Traced.cpp -----------------------------------------------===//

#include "Traced.h"

#include "sim/CountingSink.h"
#include "workloads/ProgramPopulation.h"

#include <algorithm>

using namespace spf;
using namespace spf::workloads;

namespace perfbench {

namespace {

/// The compile options runWorkload derives for a cell.
jit::CompileManager::Options jitOptions(const sim::MachineConfig &Machine,
                                        Algorithm Algo) {
  jit::CompileManager::Options CM;
  CM.EnablePrefetch = Algo != Algorithm::Baseline;
  CM.Pass = passOptionsFor(Machine, Algo == Algorithm::Inter
                                        ? core::PrefetchMode::Inter
                                        : core::PrefetchMode::InterIntra);
  return CM;
}

BuiltWorkload build(const WorkloadSpec &Spec, const WorkloadConfig &Cfg,
                    Ledger *L, double *Seconds = nullptr) {
  double Start = nowS();
  LayerCall C(L, "workloads", "build", Spec.Name);
  BuiltWorkload W = Spec.Build(Cfg);
  double S = C.end();
  if (Seconds)
    *Seconds = nowS() - Start;
  if (L) {
    L->add("workloads.build_s", S);
    L->add("workloads.builds", 1);
    L->add("workloads.build_minflt", static_cast<double>(C.minorFaults()));
    L->sample("workloads.build_ms", S * 1e3);
  }
  return W;
}

/// Compiles every unit of \p W; returns how many failed pre-compile
/// verification.
unsigned compileAll(jit::CompileManager &Jit, BuiltWorkload &W, Ledger *L) {
  unsigned Failures = 0;
  for (const CompileUnit &CU : W.CompileUnits) {
    LayerCall C(L, "jit", "compile");
    jit::CompileResult R = Jit.compile(CU.M, CU.Args);
    double S = C.end();
    Failures += !R.VerifyStatus.ok();
    if (!L)
      continue;
    const jit::CompileTimings &T = R.Timings;
    L->add("jit.methods", 1);
    L->add("jit.compile_s", S);
    L->sample("jit.compile_us", S * 1e6);
    L->add("jit.verify_s", T.VerifyUs * 1e-6);
    L->add("jit.cleanup_s", T.CleanupUs * 1e-6);
    L->add("jit.analysis_s", T.AnalysisUs * 1e-6);
    L->add("jit.backend_s", T.BackendUs * 1e-6);
    L->add("core.pass_s", T.PrefetchUs * 1e-6);
    L->add("core.loops_visited", R.Prefetch.LoopsVisited);
    L->add("core.loops_degraded", R.Prefetch.LoopsDegraded);
    L->add("core.prefetches", R.Prefetch.CodeGen.Prefetches);
    L->add("core.spec_loads", R.Prefetch.CodeGen.SpecLoads);
  }
  return Failures;
}

/// runWorkload's epoch loop without the governor: run the entry once per
/// epoch with a full collection at every boundary. Returns epoch 0's
/// return value; interpretation time goes to "<Layer>.interp_s".
uint64_t runEpochs(exec::Interpreter &Interp, BuiltWorkload &W,
                   exec::AccessSink &Sink, const RunOptions &Opt,
                   const char *Layer, Ledger *L) {
  auto Run = [&] {
    LayerCall C(L, Layer, "run");
    uint64_t V = Interp.run(W.Entry, W.EntryArgs);
    if (L)
      L->add(std::string(Layer) + ".interp_s", C.end());
    return V;
  };
  auto AddRefArgRoots = [](ir::Method *M, std::vector<uint64_t> &Args,
                           std::vector<vm::Addr *> &Roots) {
    unsigned E = std::min<unsigned>(M->numArgs(),
                                    static_cast<unsigned>(Args.size()));
    for (unsigned I = 0; I != E; ++I)
      if (M->arg(I)->type() == ir::Type::Ref)
        Roots.push_back(&Args[I]);
  };

  uint64_t Ret = Run();
  unsigned Epochs = Opt.Epochs ? Opt.Epochs : 1;
  for (unsigned E = 1; E < Epochs; ++E) {
    std::vector<vm::Addr *> Roots;
    for (vm::Addr &Handle : W.Roots)
      Roots.push_back(&Handle);
    AddRefArgRoots(W.Entry, W.EntryArgs, Roots);
    for (CompileUnit &CU : W.CompileUnits)
      AddRefArgRoots(CU.M, CU.Args, Roots);
    {
      LayerCall C(L, "vm", "collect");
      Interp.gc().collect(*W.Heap, Roots);
      double S = C.end();
      if (L) {
        L->add("vm.gc_s", S);
        L->sample("vm.gc_ms", S * 1e3);
      }
    }
    Sink.tick(exec::GcPauseTicks);
    if (Opt.PhaseChange && E == (Epochs + 1) / 2)
      applyPhaseChange(*W.Heap, Opt.Config.Seed);
    Run();
  }
  return Ret;
}

/// Books a finished run's simulated counters. Useful software prefetches
/// are only counted with prefetch-health tracking on (governed runs), so
/// only those runs feed the useful/issued ratio.
void bookSimStats(const sim::MemoryStats &M, uint64_t Cycles, bool Health,
                  Ledger *L) {
  if (!L)
    return;
  L->add("sim.cycles", static_cast<double>(Cycles));
  L->add("sim.l1_load_misses", static_cast<double>(M.L1LoadMisses));
  L->add("sim.l2_load_misses", static_cast<double>(M.L2LoadMisses));
  L->add("sim.dtlb_load_misses", static_cast<double>(M.DtlbLoadMisses));
  L->add("sim.stall_cycles", static_cast<double>(M.CyclesStalledOnLoads));
  if (Health) {
    L->add("sim.sw_useful", static_cast<double>(M.SwPrefetchesUseful));
    L->add("sim.sw_issued",
           static_cast<double>(M.SwPrefetchesIssued + M.GuardedLoads));
  }
}

} // namespace

Fingerprint cellFingerprint(const RunResult &R) {
  return {
      {"cycles", R.CompiledCycles},
      {"retired", R.Retired},
      {"l1_load_misses", R.Mem.L1LoadMisses},
      {"l2_load_misses", R.Mem.L2LoadMisses},
      {"dtlb_load_misses", R.Mem.DtlbLoadMisses},
      {"return_value", R.ReturnValue},
      {"prefetches", R.Prefetch.CodeGen.Prefetches},
      {"spec_loads", R.Prefetch.CodeGen.SpecLoads},
  };
}

TracedCell traceCell(const harness::ExperimentCell &Cell, Ledger *L) {
  const RunOptions &Opt = Cell.Opt;
  const WorkloadSpec &Spec = *Cell.Spec;
  std::string Tag = Spec.Name + " [" + algorithmName(Opt.Algo) + ", " +
                    Opt.Machine.Name + "]";
  LayerCall CellSpan(L, "harness", "cell", Tag);
  TracedCell Out;

  if (Opt.Governor) {
    // The governor's re-decisions live inside runWorkload's epoch loop.
    LayerCall C(L, "workloads", "governed_run", Tag);
    RunResult R = runWorkload(Spec, Opt);
    if (L) {
      L->add("workloads.governed_s", C.end());
      L->add("workloads.governed_runs", 1);
      bookSimStats(R.Mem, R.CompiledCycles, /*Health=*/true, L);
    }
    Out.Print = cellFingerprint(R);
    Out.Mem = R.Mem;
    return Out;
  }

  jit::CompileManager::Options CM = jitOptions(Opt.Machine, Opt.Algo);
  // Pass 1: the interpreter alone, over an event counter.
  {
    BuiltWorkload W = build(Spec, Opt.Config, L);
    jit::CompileManager Jit(*W.Heap, CM);
    Out.VerifyOk &= compileAll(Jit, W, L) == 0;
    sim::CountingSink Counter;
    exec::Interpreter Interp(*W.Heap, Counter, &W.Roots);
    Interp.gc().setVariant(Opt.GcVariant, Opt.Config.Seed);
    runEpochs(Interp, W, Counter, Opt, "exec", L);
    if (L) {
      L->add("exec.retired", static_cast<double>(Interp.stats().Retired));
      L->add("exec.mem_events",
             static_cast<double>(Counter.Loads + Counter.Stores +
                                 Counter.Prefetches + Counter.GuardedLoads +
                                 Counter.GuardedLoadFaults));
    }
  }
  // Pass 2: the same execution on a fresh identical world, over the
  // memory model.
  BuiltWorkload W = build(Spec, Opt.Config, L);
  jit::CompileManager Jit(*W.Heap, CM);
  Out.VerifyOk &= compileAll(Jit, W, L) == 0;
  LayerCall Ctor(L, "sim", "construct");
  sim::MemorySystem Mem(Opt.Machine);
  if (L)
    L->sample("sim.ctor_ms", Ctor.end() * 1e3);
  exec::Interpreter Interp(*W.Heap, Mem, &W.Roots);
  Interp.gc().setVariant(Opt.GcVariant, Opt.Config.Seed);
  RunResult R;
  R.ReturnValue = runEpochs(Interp, W, Mem, Opt, "sim", L);
  R.CompiledCycles = Mem.cycles();
  R.Retired = Interp.stats().Retired;
  R.Mem = Mem.stats();
  R.Prefetch = Jit.aggregatePrefetch();
  bookSimStats(R.Mem, R.CompiledCycles, /*Health=*/false, L);
  Out.Print = cellFingerprint(R);
  Out.Mem = R.Mem;
  return Out;
}

CompiledWorld compileWorld(const WorkloadSpec &Spec, const WorkloadConfig &Cfg,
                           const sim::MachineConfig &Machine, Algorithm Algo,
                           Ledger *L) {
  CompiledWorld Out;
  BuiltWorkload W = build(Spec, Cfg, L, &Out.BuildS);
  double Cpu0 = processCpuS();
  double Start = nowS();
  jit::CompileManager Jit(*W.Heap, jitOptions(Machine, Algo));
  Out.VerifyFailures = compileAll(Jit, W, L);
  Out.CompileS = nowS() - Start;
  Out.CompileCpuS = processCpuS() - Cpu0;
  Out.Methods = static_cast<unsigned>(W.CompileUnits.size());
  const core::PrefetchPassResult &P = Jit.aggregatePrefetch();
  Out.Print = {
      {"methods", Out.Methods},
      {"verify_failures", Out.VerifyFailures},
      {"loops_visited", P.LoopsVisited},
      {"loops_degraded", P.LoopsDegraded},
      {"prefetches", P.CodeGen.Prefetches},
      {"spec_loads", P.CodeGen.SpecLoads},
  };
  return Out;
}

} // namespace perfbench
