//===- bench/comparison_greedy.cpp - Stride vs greedy prefetching ---------===//
///
/// The paper's Section 5 positions stride prefetching against Luk &
/// Mowry's greedy prefetching for recursive data structures. This bench
/// runs both on complementary programs:
///
///  * javac / jack — pointer chases with no allocation-order regularity:
///    stride discovery finds nothing, greedy prefetching has the pointer
///    in hand;
///  * db / Euler — array-based programs with stride patterns: greedy
///    finds no recurrence, stride prefetching shines.
///
/// (Pentium 4 model; total-time speedups under the mixed-mode model.)
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "core/GreedyPrefetch.h"

using namespace spf;
using namespace spf::bench;
using namespace spf::workloads;

namespace {

/// Runs a workload with greedy prefetching applied to its hot methods
/// instead of the stride pass.
RunResult runGreedy(const WorkloadSpec &Spec, unsigned &Emitted) {
  BuiltWorkload W = Spec.Build(benchConfig());
  Emitted = 0;
  // Same baseline pipeline as every other configuration, with greedy
  // prefetching in place of the stride pass.
  jit::CompileManager::Options CM;
  CM.EnablePrefetch = false;
  jit::CompileManager Jit(*W.Heap, CM);
  for (const CompileUnit &CU : W.executedUnits()) {
    Jit.compile(CU.M, CU.Args);
    core::GreedyResult R = core::runGreedyPrefetch(CU.M);
    Emitted += R.Prefetches;
  }

  sim::MemorySystem Mem(machineByNameOrExit("pentium4"));
  exec::Interpreter Interp(*W.Heap, Mem, &W.Roots);
  RunResult Result;
  Result.ReturnValue = Interp.run(W.Entry, W.EntryArgs);
  Result.CompiledCycles = Mem.cycles();
  Result.Retired = Interp.stats().Retired;
  Result.Mem = Mem.stats();
  if (W.Expected)
    Result.SelfCheckOk = Result.ReturnValue == *W.Expected;
  return Result;
}

} // namespace

int main(int argc, char **argv) {
  init(argc, argv);
  std::printf("Stride vs greedy prefetching (Pentium 4, scale=%.2f)\n",
              scaleFromEnv());
  std::printf("%-10s %12s %12s %10s %10s\n", "benchmark", "stride",
              "greedy", "stride pf", "greedy pf");

  // Baseline + stride cells run on the shared driver; the greedy pipeline
  // is bespoke (it bypasses the stride pass) and stays serial below.
  const char *Names[] = {"javac", "jack", "db", "Euler"};
  harness::ExperimentPlan Plan;
  std::vector<const WorkloadSpec *> Specs;
  for (const char *Name : Names)
    Specs.push_back(findWorkload(Name));
  Plan.addSweep(Specs, {Algorithm::Baseline, Algorithm::InterIntra},
                {machineByNameOrExit("pentium4")}, benchConfig(),
                "comparison:greedy");
  harness::ExperimentResult Result = harness::runPlan(Plan, cli().Jobs);
  reportPlanFailures(Result);

  unsigned I = 0;
  for (const char *Name : Names) {
    const WorkloadSpec *Spec = findWorkload(Name);
    const RunResult &RBase = Result.run(I++);
    const RunResult &RStride = Result.run(I++);

    unsigned GreedyEmitted = 0;
    RunResult RGreedy = runGreedy(*Spec, GreedyEmitted);
    if (!RGreedy.SelfCheckOk)
      reportFailure(std::string(Name) +
                    " [greedy]: workload self-check failed");
    if (RGreedy.ReturnValue != RBase.ReturnValue)
      reportFailure(std::string(Name) +
                    " [greedy]: computed a different result than its "
                    "baseline run");

    std::printf("%-10s %+11.1f%% %+11.1f%% %10u %10u\n", Name,
                speedup({Spec, RBase, RBase, RStride}, RStride),
                speedup({Spec, RBase, RBase, RGreedy}, RGreedy),
                RStride.Prefetch.CodeGen.Prefetches +
                    RStride.Prefetch.CodeGen.SpecLoads,
                GreedyEmitted);
  }
  std::printf("\nThe two techniques are complementary, as Section 5 "
              "suggests: \"the two approaches can work effectively "
              "together.\"\n");
  return exitCode();
}
