//===- bench/ablation_tlb_priming.cpp - Guarded loads vs hw prefetch ------===//
///
/// Ablation for the paper's Pentium 4 decision: "We used a load
/// instruction guarded by a software exception check for intra-iteration
/// stride prefetching on the Pentium 4 in order to fill a missing DTLB
/// entry" (TLB priming, Sections 3.3/4). Runs db — the most DTLB-bound
/// benchmark — with the dereference/intra path realized as guarded loads
/// vs as ordinary hardware prefetches (which cancel on DTLB misses).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace spf;
using namespace spf::bench;
using namespace spf::workloads;

int main(int argc, char **argv) {
  init(argc, argv);
  std::printf("Ablation: TLB priming on the Pentium 4, db (scale=%.2f)\n",
              scaleFromEnv());
  std::printf("%-22s %12s %12s %12s %10s\n", "intra realization", "cycles",
              "DTLB misses", "cancelled", "speedup");

  const WorkloadSpec *Spec = findWorkload("db");
  harness::ExperimentPlan Plan;

  harness::ExperimentCell Base;
  Base.Group = "ablation:tlb";
  Base.Spec = Spec;
  Base.Opt.Config = benchConfig();
  Base.Opt.Algo = Algorithm::Baseline;
  unsigned BaseIdx = Plan.add(std::move(Base));

  for (bool Guarded : {true, false}) {
    harness::ExperimentCell Cell;
    Cell.Group = "ablation:tlb";
    Cell.Spec = Spec;
    Cell.Opt.Config = benchConfig();
    Cell.Opt.Algo = Algorithm::InterIntra;
    Cell.Opt.TunePass = [Guarded](core::PrefetchPassOptions &P) {
      P.Planner.GuardedIntraPrefetch = Guarded;
    };
    Cell.CheckAgainst = BaseIdx;
    Plan.add(std::move(Cell));
  }
  harness::ExperimentResult Result = harness::runPlan(Plan, cli().Jobs);
  reportPlanFailures(Result);

  const RunResult &RBase = Result.run(BaseIdx);
  std::printf("%-22s %12llu %12llu %12s %10s\n", "(baseline)",
              static_cast<unsigned long long>(RBase.CompiledCycles),
              static_cast<unsigned long long>(RBase.Mem.DtlbLoadMisses),
              "-", "-");
  unsigned I = BaseIdx + 1;
  for (bool Guarded : {true, false}) {
    const RunResult &R = Result.run(I++);
    std::printf("%-22s %12llu %12llu %12llu %+9.1f%%\n",
                Guarded ? "guarded load (paper)" : "hardware prefetch",
                static_cast<unsigned long long>(R.CompiledCycles),
                static_cast<unsigned long long>(R.Mem.DtlbLoadMisses),
                static_cast<unsigned long long>(
                    R.Mem.SwPrefetchesCancelled),
                speedupPercent(RBase, R, Spec->CompiledFraction));
  }
  return exitCode();
}
