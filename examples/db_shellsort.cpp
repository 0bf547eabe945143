//===- examples/db_shellsort.cpp - The paper's headline result ------------===//
///
/// Runs the 209_db sort kernel under the three evaluated configurations
/// (BASELINE, INTER, INTER+INTRA) on both machine models, printing the
/// cycle counts, miss events, and speedups — the experiment behind the
/// paper's "18.9% on the Pentium 4 and 25.1% on the Athlon MP" headline.
///
/// Build & run:   ./build/examples/db_shellsort        (takes ~3 s)
///                SPF_SCALE-style shrinking: pass a scale argument, e.g.
///                ./build/examples/db_shellsort 0.2
///                The scale must be a number > 0; anything else exits 2.
///
//===----------------------------------------------------------------------===//

#include "support/Env.h"
#include "workloads/Runner.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace spf;
using namespace spf::workloads;

int main(int argc, char **argv) {
  double Scale = 1.0;
  if (argc > 1) {
    char *End = nullptr;
    Scale = std::strtod(argv[1], &End);
    if (End == argv[1] || *End || !std::isfinite(Scale) || Scale <= 0)
      support::envConfigError("scale", argv[1], "expected a number > 0");
  }

  const WorkloadSpec *Db = findWorkload("db");
  std::printf("209_db shell sort, scale %.2f (records > L2, pages > DTLB)\n",
              Scale);

  for (auto Machine : {(*sim::MachineConfig::byName("pentium4")),
                       (*sim::MachineConfig::byName("athlonmp"))}) {
    std::printf("\n-- %s --\n", Machine.Name.c_str());
    std::printf("%-12s %14s %10s %10s %10s %9s\n", "config", "cycles",
                "L2 miss", "DTLB miss", "prefetch", "speedup");

    RunResult Base;
    for (Algorithm A : {Algorithm::Baseline, Algorithm::Inter,
                        Algorithm::InterIntra}) {
      RunOptions Opt;
      Opt.Machine = Machine;
      Opt.Algo = A;
      Opt.Config.Scale = Scale;
      RunResult R = runWorkload(*Db, Opt);
      if (A == Algorithm::Baseline)
        Base = R;
      if (R.ReturnValue != Base.ReturnValue) {
        std::fprintf(stderr, "result changed under %s!\n",
                     algorithmName(A));
        return 1;
      }
      double Speedup = speedupPercent(Base, R, Db->CompiledFraction);
      std::printf("%-12s %14llu %10llu %10llu %10llu %+8.1f%%\n",
                  algorithmName(A),
                  static_cast<unsigned long long>(R.CompiledCycles),
                  static_cast<unsigned long long>(R.Mem.L2LoadMisses),
                  static_cast<unsigned long long>(R.Mem.DtlbLoadMisses),
                  static_cast<unsigned long long>(
                      R.Mem.SwPrefetchesIssued + R.Mem.GuardedLoads),
                  Speedup);
    }
  }

  std::printf("\nPaper reference: +18.9%% on the Pentium 4, +25.1%% on the "
              "Athlon MP,\nwith INTER achieving nothing on either.\n");
  return 0;
}
