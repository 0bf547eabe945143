//===- bench/fig11_compile_time.cpp - Figure 11 ---------------------------===//
///
/// Reproduces Figure 11: "Compilation time for prefetching and total JIT
/// compilation time". Left column: additional compilation time of the
/// prefetching algorithm (INTER+INTRA) as a percentage of the total JIT
/// compilation time — the paper measures < 3.0% everywhere — as the
/// median of 5 whole-program compiles (workloads::measureCompileTime,
/// the compile-only population included) with its [min, max]. Right column:
/// total JIT compilation time as a fraction of total execution time
/// (paper: < 13%); here the execution side is the simulated cycle count
/// converted at the Pentium 4's 2 GHz, so the ratio is a modeled value.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace spf;
using namespace spf::bench;

int main(int argc, char **argv) {
  init(argc, argv);
  std::printf(
      "Figure 11: prefetch compile time / total JIT time (scale=%.2f)\n",
      scaleFromEnv());
  std::printf("%-12s %14s %14s %16s %10s %12s\n", "benchmark",
              "prefetch/JIT", "[min, max]", "JIT/total-exec", "JIT (ms)",
              "exec (ms)");
  std::printf("%-12s %14s %14s %16s %10s %12s\n", "---------",
              "------------", "----------", "--------------", "--------",
              "---------");
  std::printf("(exec is simulated time at 2 GHz; our problem sizes are\n"
              " ~100x smaller than the 2003 originals, so the right-hand\n"
              " ratio overstates the paper's <13%% JIT share)\n");

  // The exec column: one INTER+INTRA Pentium 4 cell per workload.
  harness::ExperimentPlan Plan;
  for (const workloads::WorkloadSpec &Spec : workloads::allWorkloads()) {
    harness::ExperimentCell Cell;
    Cell.Group = "fig11";
    Cell.Spec = &Spec;
    Cell.Opt.Machine = machineByNameOrExit("pentium4");
    Cell.Opt.Algo = workloads::Algorithm::InterIntra;
    Cell.Opt.Config = benchConfig();
    Plan.add(std::move(Cell));
  }
  harness::ExperimentResult Result = harness::runPlan(Plan, cli().Jobs);
  reportPlanFailures(Result);

  // Compile time is wall-clock and jittery: compile each whole program a
  // few times on this thread once the plan is done, so no cell competes
  // for the CPU, and report the median share with its spread.
  for (unsigned I = 0; I != Plan.size(); ++I) {
    const harness::ExperimentCell &Cell = Plan.cells()[I];
    std::vector<double> Shares, JitUs;
    for (unsigned R = 0; R != 5; ++R) {
      workloads::CompileTime T =
          workloads::measureCompileTime(*Cell.Spec, Cell.Opt);
      Shares.push_back(T.PrefetchUs / T.TotalUs * 100.0);
      JitUs.push_back(T.TotalUs);
    }
    // Simulated execution time at 2 GHz (2000 cycles per microsecond),
    // under the mixed-mode model.
    uint64_t Cycles = Result.run(I).CompiledCycles;
    double ExecUs = workloads::totalTime(Cycles, Cycles,
                                         Cell.Spec->CompiledFraction) /
                    2000.0;
    double Jit = median(JitUs);
    auto [Min, Max] = std::minmax_element(Shares.begin(), Shares.end());
    std::printf("%-12s %13.1f%%   [%4.1f, %4.1f] %15.1f%% %10.2f %12.2f\n",
                Cell.Spec->Name.c_str(), median(Shares), *Min, *Max,
                Jit / (Jit + ExecUs) * 100.0, Jit / 1000.0, ExecUs / 1000.0);
  }
  return exitCode();
}
