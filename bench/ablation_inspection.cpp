//===- bench/ablation_inspection.cpp - Object inspection knobs ------------===//
///
/// Ablations for the inspection parameters the paper sets by fiat:
///
///  * iterations observed ("for example, 20 times") and the majority
///    threshold ("over 75%") — swept on jess, reporting what the pass
///    discovers and generates;
///  * inter-procedural inspection ("might improve the accuracy ... but it
///    would increase the compilation time, requiring the trade-off to be
///    carefully assessed") — compile-time and emission comparison;
///  * Wu's weak/phased stride kinds (classified but unexploited by the
///    paper's algorithm) — emission with ExploitWeakStrides on.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace spf;
using namespace spf::bench;
using namespace spf::workloads;

/// A jess cell with the ablation's pass tuning applied; the jess kernel
/// is analysis-bound, so its scale is capped.
static harness::ExperimentCell
jessCell(std::function<void(core::PrefetchPassOptions &)> T) {
  harness::ExperimentCell Cell;
  Cell.Group = "ablation:inspection";
  Cell.Spec = findWorkload("jess");
  Cell.Opt.Config = benchConfig();
  Cell.Opt.Config.Scale = std::min(Cell.Opt.Config.Scale, 0.3);
  Cell.Opt.Algo = Algorithm::InterIntra;
  Cell.Opt.TunePass = std::move(T);
  return Cell;
}

/// Median prefetch-pass time of \p Cell's whole program over 5 compiles
/// on this thread (workloads::measureCompileTime): wall-clock, so it is
/// measured after the plan, not taken from its concurrent cells.
static double passUs(const harness::ExperimentCell &Cell) {
  std::vector<double> Us;
  for (unsigned R = 0; R != 5; ++R)
    Us.push_back(measureCompileTime(*Cell.Spec, Cell.Opt).PrefetchUs);
  return median(Us);
}

int main(int argc, char **argv) {
  init(argc, argv);
  // All four sections share one plan and one worker pool.
  harness::ExperimentPlan Plan;

  const unsigned Iterations[] = {5u, 10u, 20u, 40u};
  for (unsigned N : Iterations)
    Plan.add(jessCell([N](core::PrefetchPassOptions &P) {
      P.Inspector.MaxIterations = N;
      P.Stride.MinSamples = std::min(4u, N - 1);
    }));

  const double Thresholds[] = {0.5, 0.75, 0.9, 1.0};
  for (double T : Thresholds)
    Plan.add(jessCell([T](core::PrefetchPassOptions &P) {
      P.Stride.MajorityThreshold = T;
    }));

  for (bool Follow : {false, true})
    Plan.add(jessCell([Follow](core::PrefetchPassOptions &P) {
      P.Inspector.FollowCalls = Follow;
    }));

  for (bool Weak : {false, true}) {
    harness::ExperimentCell Cell;
    Cell.Group = "ablation:inspection";
    Cell.Spec = findWorkload("db");
    Cell.Opt.Config = benchConfig();
    Cell.Opt.Algo = Algorithm::InterIntra;
    Cell.Opt.TunePass = [Weak](core::PrefetchPassOptions &P) {
      P.Planner.ExploitWeakStrides = Weak;
    };
    Plan.add(std::move(Cell));
  }

  harness::ExperimentResult Result = harness::runPlan(Plan, cli().Jobs);
  reportPlanFailures(Result);
  unsigned I = 0;

  std::printf("Ablation A: inspection iterations (jess)\n");
  std::printf("%4s %10s %10s %12s\n", "N", "speclds", "prefetch",
              "pass us");
  for (unsigned N : Iterations) {
    const RunResult &R = Result.run(I);
    std::printf("%4u %10u %10u %12.1f\n", N, R.Prefetch.CodeGen.SpecLoads,
                R.Prefetch.CodeGen.Prefetches, passUs(Plan.cells()[I++]));
  }

  std::printf("\nAblation B: majority threshold (jess)\n");
  std::printf("%6s %10s %10s\n", "thresh", "speclds", "prefetch");
  for (double T : Thresholds) {
    const RunResult &R = Result.run(I++);
    std::printf("%6.2f %10u %10u\n", T, R.Prefetch.CodeGen.SpecLoads,
                R.Prefetch.CodeGen.Prefetches);
  }

  std::printf("\nAblation C: inter-procedural inspection (jess)\n");
  std::printf("%-14s %10s %10s %12s\n", "calls", "speclds", "prefetch",
              "pass us");
  for (bool Follow : {false, true}) {
    const RunResult &R = Result.run(I);
    std::printf("%-14s %10u %10u %12.1f\n",
                Follow ? "followed" : "skipped (paper)",
                R.Prefetch.CodeGen.SpecLoads, R.Prefetch.CodeGen.Prefetches,
                passUs(Plan.cells()[I++]));
  }

  std::printf("\nAblation D: weak/phased stride exploitation (db, P4)\n");
  std::printf("%-18s %10s %12s\n", "strides", "prefetch", "cycles");
  for (bool Weak : {false, true}) {
    const RunResult &R = Result.run(I++);
    std::printf("%-18s %10u %12llu\n",
                Weak ? "strong+weak+phased" : "strong only (paper)",
                R.Prefetch.CodeGen.Prefetches,
                static_cast<unsigned long long>(R.CompiledCycles));
  }
  return exitCode();
}
