//===- examples/spf_cli.cpp - Command-line driver -------------------------===//
///
/// A small driver over the public API:
///
///   spf_cli list
///       The 12 Table 3 workloads.
///   spf_cli run --workload db [--machine p4|athlon]
///               [--algo baseline|inter|inter+intra] [--scale 0.5] [-c N]
///       Build, JIT-compile, and simulate one workload; print the
///       Figure 6-10 measurements. --scale takes a number > 0 and -c a
///       scheduling distance >= 1; anything else exits 2.
///   spf_cli dump --workload jess [--prefetch] [--machine p4|athlon]
///       Print the hot method's IR, optionally after the prefetch pass.
///
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"
#include "support/Env.h"
#include "workloads/Runner.h"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstring>
#include <iostream>

using namespace spf;
using namespace spf::workloads;

namespace {

struct Cli {
  std::string Command;
  std::string Workload = "jess";
  sim::MachineConfig Machine = (*sim::MachineConfig::byName("pentium4"));
  Algorithm Algo = Algorithm::InterIntra;
  double Scale = 1.0;
  unsigned Distance = 1;
  bool Prefetch = false;
};

int usage() {
  std::cerr << "usage: spf_cli list\n"
               "       spf_cli run  --workload NAME [--machine p4|athlon]\n"
               "                    [--algo baseline|inter|inter+intra]\n"
               "                    [--scale X] [-c N]\n"
               "       spf_cli dump --workload NAME [--prefetch]\n"
               "                    [--machine p4|athlon]\n";
  return 2;
}

bool parseArgs(int Argc, char **Argv, Cli &C) {
  if (Argc < 2)
    return false;
  C.Command = Argv[1];
  for (int I = 2; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (A == "--workload") {
      const char *V = Next();
      if (!V)
        return false;
      C.Workload = V;
    } else if (A == "--machine") {
      const char *V = Next();
      if (!V)
        return false;
      if (std::strcmp(V, "p4") == 0)
        C.Machine = (*sim::MachineConfig::byName("pentium4"));
      else if (std::strcmp(V, "athlon") == 0)
        C.Machine = (*sim::MachineConfig::byName("athlonmp"));
      else
        return false;
    } else if (A == "--algo") {
      const char *V = Next();
      if (!V)
        return false;
      if (std::strcmp(V, "baseline") == 0)
        C.Algo = Algorithm::Baseline;
      else if (std::strcmp(V, "inter") == 0)
        C.Algo = Algorithm::Inter;
      else if (std::strcmp(V, "inter+intra") == 0)
        C.Algo = Algorithm::InterIntra;
      else
        return false;
    } else if (A == "--scale") {
      const char *V = Next();
      if (!V)
        return false;
      char *End = nullptr;
      C.Scale = std::strtod(V, &End);
      if (End == V || *End || !std::isfinite(C.Scale) || C.Scale <= 0)
        support::envConfigError("--scale", V, "expected a scale > 0");
    } else if (A == "-c") {
      const char *V = Next();
      if (!V)
        return false;
      char *End = nullptr;
      errno = 0;
      unsigned long N = std::strtoul(V, &End, 10);
      if (*V < '0' || *V > '9' || *End || errno == ERANGE || N < 1 ||
          N > UINT_MAX)
        support::envConfigError("-c", V,
                                "expected a scheduling distance >= 1");
      C.Distance = static_cast<unsigned>(N);
    } else if (A == "--prefetch") {
      C.Prefetch = true;
    } else {
      return false;
    }
  }
  return true;
}

int cmdList() {
  for (const WorkloadSpec &S : allWorkloads())
    std::cout << S.Name << "\t" << S.Description << "\n";
  return 0;
}

int cmdRun(const Cli &C) {
  const WorkloadSpec *Spec = findWorkload(C.Workload);
  if (!Spec) {
    std::cerr << "unknown workload '" << C.Workload << "'\n";
    return 1;
  }
  RunOptions Opt;
  Opt.Machine = C.Machine;
  Opt.Algo = C.Algo;
  Opt.Config.Scale = C.Scale;
  if (C.Distance != 1)
    Opt.TunePass = [&C](core::PrefetchPassOptions &P) {
      P.Planner.ScheduleDistance = C.Distance;
    };
  RunResult R = runWorkload(*Spec, Opt);

  std::cout << Spec->Name << " on " << C.Machine.Name << " under "
            << algorithmName(C.Algo) << " (scale " << Opt.Config.Scale
            << ")\n";
  std::cout << "  compiled cycles:   " << R.CompiledCycles << "\n";
  std::cout << "  retired instrs:    " << R.Retired << "\n";
  std::cout << "  loads:             " << R.Mem.Loads << "\n";
  std::cout << "  L1 load misses:    " << R.Mem.L1LoadMisses << "\n";
  std::cout << "  L2 load misses:    " << R.Mem.L2LoadMisses << "\n";
  std::cout << "  DTLB load misses:  " << R.Mem.DtlbLoadMisses << "\n";
  std::cout << "  sw prefetches:     " << R.Mem.SwPrefetchesIssued << " ("
            << R.Mem.SwPrefetchesCancelled << " cancelled)\n";
  std::cout << "  guarded loads:     " << R.Mem.GuardedLoads << "\n";
  std::cout << "  GC runs:           " << R.Exec.GcRuns << "\n";
  std::cout << "  result:            " << R.ReturnValue
            << (R.SelfCheckOk ? " [self-check ok]" : " [SELF-CHECK FAIL]")
            << "\n";
  return R.SelfCheckOk ? 0 : 1;
}

int cmdDump(const Cli &C) {
  const WorkloadSpec *Spec = findWorkload(C.Workload);
  if (!Spec) {
    std::cerr << "unknown workload '" << C.Workload << "'\n";
    return 1;
  }
  WorkloadConfig Cfg;
  Cfg.Scale = 0.05; // The IR is size-independent.
  BuiltWorkload W = Spec->Build(Cfg);
  ir::Method *Hot = W.CompileUnits[0].M;

  if (C.Prefetch) {
    core::PrefetchPassOptions Opts =
        passOptionsFor(C.Machine, core::PrefetchMode::InterIntra);
    core::PrefetchPass Pass(*W.Heap, Opts);
    core::PrefetchPassResult R = Pass.run(Hot, W.CompileUnits[0].Args);
    std::cout << "; after stride prefetching for " << C.Machine.Name
              << ": " << R.CodeGen.SpecLoads << " spec_load(s), "
              << R.CodeGen.Prefetches << " prefetch(es)\n";
  }
  ir::printMethod(std::cout, Hot);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Cli C;
  if (!parseArgs(Argc, Argv, C))
    return usage();
  if (C.Command == "list")
    return cmdList();
  if (C.Command == "run")
    return cmdRun(C);
  if (C.Command == "dump")
    return cmdDump(C);
  return usage();
}
