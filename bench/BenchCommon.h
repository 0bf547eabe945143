//===- bench/BenchCommon.h - Shared bench harness ---------------*- C++ -*-===//
///
/// \file
/// Helpers shared by the bench binaries: command-line and SPF_SCALE
/// parsing, the failure count behind the exit code, and writing the
/// JSON report of a plan run on the parallel driver (src/harness).
///
/// The problem scale can be reduced for quick runs with SPF_SCALE (e.g.
/// SPF_SCALE=0.1 ./sweep); the recorded EXPERIMENTS.md numbers use the
/// default 1.0. Worker count comes from --jobs N (default: hardware
/// concurrency). Any workload self-check failure or
/// baseline-vs-prefetch result mismatch makes the binary exit nonzero.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_BENCH_BENCHCOMMON_H
#define SPF_BENCH_BENCHCOMMON_H

#include "harness/Experiment.h"
#include "harness/JsonWriter.h"
#include "harness/ThreadPool.h"
#include "obs/Tracer.h"
#include "support/Env.h"
#include "workloads/Runner.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>

namespace spf {
namespace bench {

/// SPF_SCALE, a problem scale > 0 (default 1.0). Anything else exits
/// with support::ConfigErrorExit (2).
inline double scaleFromEnv() {
  double V = support::envDouble("SPF_SCALE", 1.0);
  if (V <= 0)
    support::envConfigError("SPF_SCALE", std::getenv("SPF_SCALE"),
                            "expected a scale > 0");
  return V;
}

inline workloads::WorkloadConfig benchConfig() {
  workloads::WorkloadConfig Cfg;
  Cfg.Scale = scaleFromEnv();
  return Cfg;
}

/// Resolves a machine by registry name (sim::MachineConfig::byName) or
/// exits with ConfigErrorExit (2) listing the known names.
inline sim::MachineConfig machineByNameOrExit(const std::string &Name) {
  if (std::optional<sim::MachineConfig> M = sim::MachineConfig::byName(Name))
    return *M;
  std::string Known;
  for (const std::string &N : sim::MachineConfig::knownNames()) {
    if (!Known.empty())
      Known += ", ";
    Known += N;
  }
  support::envConfigError("--machine", Name.c_str(),
                          "unknown machine; known names: " + Known);
}

/// Loads and validates a machine file (machines/*.json schema, see
/// DESIGN.md) or exits with ConfigErrorExit carrying the diagnostic.
inline sim::MachineConfig machineFromFileOrExit(const std::string &Path) {
  std::string Error;
  if (std::optional<sim::MachineConfig> M =
          sim::MachineConfig::fromFile(Path, &Error))
    return *M;
  support::envConfigError("--machine-file", Path.c_str(), Error);
}

/// One command-line flag of a bench binary: "--name VALUE" or
/// "--name=VALUE" when it takes a value, bare "--name" when it does not.
/// \p Set receives the value ("" for a switch).
struct Flag {
  std::string Name;
  std::function<void(const std::string &)> Set;
  bool TakesValue = true;
};

inline Flag stringFlag(const char *Name, std::string &Out) {
  return {Name, [&Out](const std::string &V) { Out = V; }};
}

inline Flag switchFlag(const char *Name, bool &Out) {
  return {Name, [&Out](const std::string &) { Out = true; }, false};
}

/// Parses every argument of \p argv against \p Flags, in order. An
/// argument that names no flag, or a value flag without its value,
/// exits with support::ConfigErrorExit (2) before any cell runs.
inline void parseArgs(int argc, char **argv, const std::vector<Flag> &Flags) {
  for (int I = 1; I < argc; ++I) {
    const std::string A = argv[I];
    const Flag *F = nullptr;
    std::optional<std::string> Value;
    for (const Flag &Cand : Flags) {
      if (A == Cand.Name) {
        F = &Cand;
        break;
      }
      if (Cand.TakesValue && A.rfind(Cand.Name + "=", 0) == 0) {
        F = &Cand;
        Value = A.substr(Cand.Name.size() + 1);
        break;
      }
    }
    if (!F) {
      std::fprintf(stderr, "spf: unknown argument \"%s\"\n", A.c_str());
      std::exit(support::ConfigErrorExit);
    }
    if (F->TakesValue && !Value) {
      if (I + 1 == argc)
        support::envConfigError(F->Name.c_str(), nullptr, "missing value");
      Value = argv[++I];
    }
    F->Set(Value.value_or(""));
  }
}

/// Parses \p V, the value of \p Flag, as a whole-string decimal integer
/// in [Min, Max], or exits with support::ConfigErrorExit (2) explaining
/// \p Expected. Signs, spaces, suffixes and empty values are rejected.
inline uint64_t parseCountOrExit(const char *Flag, const std::string &V,
                                 uint64_t Min, uint64_t Max,
                                 const char *Expected) {
  char *End = nullptr;
  errno = 0;
  unsigned long long N = std::strtoull(V.c_str(), &End, 10);
  if (V.empty() || V[0] < '0' || V[0] > '9' || *End != '\0' ||
      errno == ERANGE || N < Min || N > Max)
    support::envConfigError(Flag, V.c_str(), Expected);
  return static_cast<uint64_t>(N);
}

/// Machine-selection flags of bench/sweep:
///   --machine NAME       a builtin from the registry (repeatable;
///                        aliases like "p4"/"athlon"/"modern" work)
///   --machine-file FILE  a JSON machine description (repeatable)
///   --hw-prefetch KIND   override the hardware prefetcher of every
///                        selected machine: none | stream | rpt
/// Machines keeps flag order; it stays empty when no machine flag was
/// given, in which case the caller uses its default plan.
struct MachineArgs {
  std::vector<sim::MachineConfig> Machines;
  std::optional<sim::HwPrefetchKind> HwOverride;

  std::vector<Flag> flags() {
    return {
        {"--machine",
         [this](const std::string &V) {
           Machines.push_back(machineByNameOrExit(V));
         }},
        {"--machine-file",
         [this](const std::string &V) {
           Machines.push_back(machineFromFileOrExit(V));
         }},
        {"--hw-prefetch",
         [this](const std::string &V) {
           HwOverride = sim::parseHwPrefetchKind(V);
           if (!HwOverride)
             support::envConfigError("--hw-prefetch", V.c_str(),
                                     "expected none|stream|rpt");
         }},
    };
  }
};

/// Epoch / GC-variant / governor knobs shared by adaptation-aware
/// benches (bench/adaptation, bench/sweep):
///   --epochs N            epochs per run, >= MinEpochs (1 by default)
///   --gc-variant NAME     sliding-compact | mark-sweep | address-shuffle |
///                         promotion-order
///   --governor on|off     online prefetch-health governor
///   --phase-change        shuffle ref arrays at the midpoint boundary
/// Invalid values exit with support::ConfigErrorExit (2) before any cell
/// runs.
struct AdaptationKnobs {
  unsigned Epochs = 1;
  vm::GcVariant GcVariant = vm::GcVariant::SlidingCompact;
  bool Governor = false;
  bool PhaseChange = false;

  void applyTo(workloads::RunOptions &Opt) const {
    Opt.Epochs = Epochs;
    Opt.GcVariant = GcVariant;
    Opt.Governor = Governor;
    Opt.PhaseChange = PhaseChange;
  }

  std::vector<Flag> flags(unsigned MinEpochs = 1) {
    return {
        {"--epochs",
         [this, MinEpochs](const std::string &V) {
           Epochs = static_cast<unsigned>(parseCountOrExit(
               "--epochs", V, MinEpochs, 1000000,
               ("expected an integer epoch count >= " +
                std::to_string(MinEpochs))
                   .c_str()));
         }},
        {"--gc-variant",
         [this](const std::string &V) {
           std::optional<vm::GcVariant> G = vm::parseGcVariant(V);
           if (!G)
             support::envConfigError("--gc-variant", V.c_str(),
                                     "expected sliding-compact|mark-sweep|"
                                     "address-shuffle|promotion-order");
           GcVariant = *G;
         }},
        {"--governor",
         [this](const std::string &V) {
           if (V == "on" || V == "1" || V == "true")
             Governor = true;
           else if (V == "off" || V == "0" || V == "false")
             Governor = false;
           else
             support::envConfigError("--governor", V.c_str(),
                                     "expected on|off");
         }},
        switchFlag("--phase-change", PhaseChange),
    };
  }
};

/// Number of correctness failures recorded so far in this binary.
inline unsigned &failureCount() {
  static unsigned Count = 0;
  return Count;
}

/// Records one correctness failure; the binary will exit nonzero.
inline void reportFailure(const std::string &Msg) {
  ++failureCount();
  std::fprintf(stderr, "FAILURE: %s\n", Msg.c_str());
}

/// The exit code every bench main() must return: 1 iff any workload
/// self-check failed or prefetching changed a result, 0 otherwise.
inline int exitCode() { return failureCount() ? 1 : 0; }

/// Folds a finished plan's verdicts into this binary's failure count.
/// Returns true when the plan was fully clean.
inline bool reportPlanFailures(const harness::ExperimentResult &Result) {
  for (const std::string &F : Result.Failures)
    reportFailure(F);
  return Result.ok();
}

/// Per-binary CLI state shared by every bench main, filled by init().
struct BenchCli {
  std::string ProcessLabel; ///< Binary name, labels the trace lane.
  unsigned Jobs = 0;
  std::string ProfileOut; ///< Chrome trace_event JSON path (src/obs).
  /// The --profile-out file, opened by init() before any cell runs so an
  /// unwritable path fails fast; flushTrace() fills it.
  std::ofstream Trace;
};

inline BenchCli &cli() {
  static BenchCli C;
  return C;
}

/// atexit hook: writes the Chrome trace after main() has finished every
/// plan.
inline void flushTrace() {
  BenchCli &C = cli();
  size_t N = obs::Tracer::instance().writeChromeTrace(C.Trace, C.ProcessLabel);
  C.Trace.flush();
  if (!C.Trace)
    std::fprintf(stderr, "trace: cannot write %s\n", C.ProfileOut.c_str());
  else
    std::fprintf(stderr, "trace: %zu event(s) -> %s\n", N,
                 C.ProfileOut.c_str());
}

/// Parses the command line: the binary's own \p Flags plus the shared
///   --jobs N             worker threads (default: hardware concurrency)
///   --profile-out FILE   Chrome trace of the whole run
/// Call first in every bench main. A malformed value, an unknown
/// argument or a --profile-out path that cannot be opened for writing
/// exits with support::ConfigErrorExit (2).
inline void init(int argc, char **argv, std::vector<Flag> Flags = {}) {
  BenchCli &C = cli();
  C.ProcessLabel = argv[0];
  if (size_t Slash = C.ProcessLabel.find_last_of('/');
      Slash != std::string::npos)
    C.ProcessLabel = C.ProcessLabel.substr(Slash + 1);
  Flags.push_back({"--jobs", [&C](const std::string &V) {
                     C.Jobs = static_cast<unsigned>(parseCountOrExit(
                         "--jobs", V, 1, 1024,
                         "expected an integer worker count in [1, 1024]"));
                   }});
  Flags.push_back(stringFlag("--profile-out", C.ProfileOut));
  parseArgs(argc, argv, Flags);
  if (!C.Jobs)
    C.Jobs = harness::defaultJobs();
  if (!C.ProfileOut.empty()) {
    C.Trace.open(C.ProfileOut, std::ios::trunc);
    if (!C.Trace)
      support::envConfigError("--profile-out", C.ProfileOut.c_str(),
                              "cannot open for writing");
    obs::Tracer::instance().enable();
    std::atexit(flushTrace);
  }
}

/// The (upper) median of the non-empty \p V: wall-clock samples.
inline double median(std::vector<double> V) {
  std::nth_element(V.begin(), V.begin() + V.size() / 2, V.end());
  return V[V.size() / 2];
}

/// Writes the JSON report for one finished plan to \p Path ("-" =
/// stdout). Returns false when the file cannot be written in full; the
/// caller records that as a Failure.
inline bool writeReportTo(const std::string &Path,
                          const harness::ExperimentPlan &Plan,
                          const harness::ExperimentResult &Result,
                          double Scale, unsigned Jobs) {
  if (Path == "-") {
    harness::writeJsonReport(std::cout, Plan, Result, Scale, Jobs);
    return true;
  }
  std::ofstream OS(Path, std::ios::trunc);
  if (OS) {
    harness::writeJsonReport(OS, Plan, Result, Scale, Jobs);
    OS.flush();
  }
  return static_cast<bool>(OS);
}

/// Results for one workload under the three configurations.
struct WorkloadRuns {
  const workloads::WorkloadSpec *Spec = nullptr;
  workloads::RunResult Base;
  workloads::RunResult Inter;
  workloads::RunResult Intra;
};

inline double speedup(const WorkloadRuns &Row,
                      const workloads::RunResult &Opt) {
  return workloads::speedupPercent(Row.Base, Opt,
                                   Row.Spec->CompiledFraction);
}

} // namespace bench
} // namespace spf

#endif // SPF_BENCH_BENCHCOMMON_H
