//===- bench/ablation_scheduling.cpp - Scheduling distance sweep ----------===//
///
/// Ablation for the paper's fixed scheduling distance: "We fixed the
/// scheduling distance as one iteration for both inter- and intra-
/// iteration stride prefetching because our primary concern was not to
/// optimally tune up both kinds" and "we can reduce [Euler's] L2 cache
/// load MPI more by a longer scheduling distance" (Section 4.2).
///
/// Sweeps c = 1..8 on Euler (inter-pattern-dominated) and db (dereference/
/// intra-dominated) on the Pentium 4.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace spf;
using namespace spf::bench;
using namespace spf::workloads;

int main(int argc, char **argv) {
  init(argc, argv);
  std::printf("Ablation: scheduling distance c (Pentium 4, scale=%.2f)\n",
              scaleFromEnv());
  std::printf("%-10s %4s %12s %12s %10s\n", "benchmark", "c", "cycles",
              "L2 misses", "speedup");

  const unsigned Distances[] = {1u, 2u, 4u, 8u};
  harness::ExperimentPlan Plan;
  for (const char *Name : {"Euler", "db"}) {
    const WorkloadSpec *Spec = findWorkload(Name);

    harness::ExperimentCell Base;
    Base.Group = "ablation:scheduling";
    Base.Spec = Spec;
    Base.Opt.Config = benchConfig();
    Base.Opt.Algo = Algorithm::Baseline;
    unsigned BaseIdx = Plan.add(std::move(Base));

    for (unsigned C : Distances) {
      harness::ExperimentCell Cell;
      Cell.Group = "ablation:scheduling";
      Cell.Spec = Spec;
      Cell.Opt.Config = benchConfig();
      Cell.Opt.Algo = Algorithm::InterIntra;
      Cell.Opt.TunePass = [C](core::PrefetchPassOptions &P) {
        P.Planner.ScheduleDistance = C;
      };
      Cell.CheckAgainst = BaseIdx;
      Plan.add(std::move(Cell));
    }
  }
  harness::ExperimentResult Result = harness::runPlan(Plan, cli().Jobs);
  reportPlanFailures(Result);

  unsigned I = 0;
  for (const char *Name : {"Euler", "db"}) {
    const WorkloadSpec *Spec = findWorkload(Name);
    const RunResult &RBase = Result.run(I++);
    for (unsigned C : Distances) {
      const RunResult &R = Result.run(I++);
      std::printf("%-10s %4u %12llu %12llu %+9.1f%%\n", Name, C,
                  static_cast<unsigned long long>(R.CompiledCycles),
                  static_cast<unsigned long long>(R.Mem.L2LoadMisses),
                  speedupPercent(RBase, R, Spec->CompiledFraction));
    }
  }
  return exitCode();
}
