//===- perfbench/main.cpp - The repository benchmark ----------------------===//
///
/// \file
/// One binary, three workloads, two modes.
///
///   perfbench --workload figures|adaptation|compile --seed N --seconds S
///             --trace 0|1 [--scale X] [--reference-dir DIR]
///             [--out-dir DIR] [--write-reference]
///
/// Workloads (the seed reaches the program only as WorkloadConfig::Seed):
///   figures     the paper's evaluation: 12 Table-3 workloads x {BASELINE,
///               INTER, INTER+INTRA} x {pentium4, athlonmp}, 72 cells
///               through harness::runPlan with default execution sharing.
///   adaptation  db, jack, MonteCarlo on pentium4 over several epochs with
///               a GC at each boundary: sliding-compact reference plus
///               {mark-sweep, address-shuffle, promotion-order} x
///               {BASELINE, INTER+INTRA governor off, governor on}.
///   compile     every Table-3 world built (set-up), then only
///               jit::CompileManager::compile over every compile unit
///               (measured), under INTER and INTER+INTRA for both machines.
///
/// --trace 0 repeats the workload while another repetition fits in S
/// seconds and prints the end-to-end metrics (medians over repetitions;
/// times in nominal-host seconds, see HostSpeed in Ledger.h).
/// paper_err_pp and governor_cycles_pct come from the figures and
/// adaptation plans; a workload that does not run one runs it after its
/// measured phase. --trace 1 runs the plan once through runPlan, then
/// twice layer by layer (Traced.h), with and without spans, and prints the
/// per-layer metrics; it writes <workload>-<seed>.trace.json (Chrome
/// trace) and <workload>-<seed>.layers.json under --out-dir.
///
/// Every operation is checked: workload self-check, BASELINE return
/// equality, no quarantined cell, every method verifies, every repetition
/// identical to the first, the traced run identical to runPlan, and — when
/// reference/<workload>-<seed>.json matches the run's scale — identical to
/// the stored reference. The last stdout line is one JSON object:
/// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
///
//===----------------------------------------------------------------------===//

#include "Ledger.h"
#include "Oracle.h"
#include "Traced.h"

#include "harness/JsonWriter.h"
#include "harness/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sched.h>
#include <set>
#include <span>
#include <spawn.h>
#include <sstream>
#include <stdexcept>
#include <sys/wait.h>
#include <unistd.h>

using namespace spf;
using namespace spf::workloads;
using namespace perfbench;

namespace {

/// Epochs and scale of the adaptation grid: four epochs give three GC
/// boundaries, enough for the governor to re-inspect db (and, as at full
/// scale, lose cycles doing so), at a scale where one repetition takes
/// about ten seconds.
constexpr unsigned AdaptEpochs = 4;
constexpr double AdaptScale = 0.25;
/// Worker count of the measured runPlan calls. With more workers, which
/// cells share an execution depends on scheduling and the host's
/// neighbours slow some workers; one worker keeps wall_s steady.
constexpr unsigned MeasuredJobs = 1;
/// Worker count of the untimed work: traced passes and fidelity plans.
constexpr unsigned HelperJobs = 4;
/// Launches timed for the set-up of a runPlan workload (probeSetupS).
constexpr unsigned SetupProbes = 9;

/// INTER+INTRA speed-ups the paper states as numbers (EXPERIMENTS.md).
struct PaperSpeedup {
  const char *Workload;
  double P4;
  double Athlon;
};
constexpr PaperSpeedup PaperSpeedups[] = {
    {"jess", 2.0, 2.9}, {"db", 18.9, 25.1}, {"Euler", 15.4, 14.0}};

struct Metric {
  const char *Name;
  const char *Unit;
};

/// Every end-to-end metric, in output order (BENCHMARK.json end_to_end).
constexpr Metric EndToEnd[] = {
    {"wall_s", "s"},        {"cpu_s", "s"},
    {"setup_s", "s"},       {"peak_rss_mb", "MB"},
    {"pass_share", "ratio"}, {"paper_err_pp", "pp"},
    {"governor_cycles_pct", "%"},
};

/// Every per-layer metric, in output order (BENCHMARK.json per_layer).
/// "<x>.p50/.tail/.tail_pct" summarise a per-call timing; its sample count
/// is workloads.builds, jit.methods, vm.collections or sim.ctor_ms.n.
constexpr Metric PerLayer[] = {
    {"workloads.build_s", "s"},
    {"workloads.builds", "count"},
    {"workloads.distinct_worlds", "count"},
    {"workloads.build_minflt", "count"},
    {"workloads.build_ms.p50", "ms"},
    {"workloads.build_ms.tail", "ms"},
    {"workloads.build_ms.tail_pct", "%"},
    {"workloads.governed_s", "s"},
    {"workloads.governed_runs", "count"},
    {"jit.methods", "count"},
    {"jit.compile_s", "s"},
    {"jit.verify_s", "s"},
    {"jit.cleanup_s", "s"},
    {"jit.analysis_s", "s"},
    {"jit.backend_s", "s"},
    {"jit.compile_us.p50", "us"},
    {"jit.compile_us.tail", "us"},
    {"jit.compile_us.tail_pct", "%"},
    {"core.pass_s", "s"},
    {"core.pass_share_pct", "%"},
    {"core.loops_visited", "count"},
    {"core.loops_degraded", "count"},
    {"core.prefetches", "count"},
    {"core.spec_loads", "count"},
    {"exec.interp_s", "s"},
    {"exec.retired", "count"},
    {"exec.mem_events", "count"},
    {"exec.minst_per_s", "Minst/s"},
    {"vm.gc_s", "s"},
    {"vm.collections", "count"},
    {"vm.gc_ms.p50", "ms"},
    {"vm.gc_ms.tail", "ms"},
    {"vm.gc_ms.tail_pct", "%"},
    {"sim.model_s", "s"},
    {"sim.ns_per_event", "ns"},
    {"sim.ctor_ms.p50", "ms"},
    {"sim.ctor_ms.tail", "ms"},
    {"sim.ctor_ms.tail_pct", "%"},
    {"sim.ctor_ms.n", "count"},
    {"sim.cycles", "count"},
    {"sim.l1_load_misses", "count"},
    {"sim.l2_load_misses", "count"},
    {"sim.dtlb_load_misses", "count"},
    {"sim.stall_cycles", "count"},
    {"sim.sw_prefetch_useful_ratio", "ratio"},
    {"harness.cells", "count"},
    {"harness.cells_interpreted", "count"},
    {"harness.parallel_eff", "ratio"},
    {"obs.trace_overhead_pct", "%"},
};

struct Options {
  std::string Workload;
  uint64_t Seed = WorkloadConfig().Seed;
  double Seconds = 10;
  bool Trace = false;
  double Scale = 0; ///< 0 = the workload's own scale.
  std::string ReferenceDir = "perfbench/reference";
  std::string OutDir = ".bench_out";
  bool WriteReference = false;
  /// Internal: start up, build the workload's plan, print the steady-clock
  /// time and exit (see probeSetupS).
  bool SetupProbe = false;
};

/// Failed operations against attempted ones; the first few failures are
/// printed to stderr.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  unsigned Printed = 0;

  void op(bool Ok, const std::string &What, uint64_t Weight = 1) {
    Attempted += Weight;
    if (Ok)
      return;
    Failed += Weight;
    if (Printed++ < 20)
      std::fprintf(stderr, "FAILED: %s\n", What.c_str());
  }
};

/// A plan plus what its cells must agree with.
struct CheckedPlan {
  harness::ExperimentPlan Plan;
  RunKey Key;
  std::optional<Reference> Ref;
};

std::string cellKey(const harness::ExperimentCell &C) {
  std::string K = C.Spec->Name + "/" + C.Opt.Machine.Name + "/" +
                  algorithmName(C.Opt.Algo);
  if (C.Opt.Epochs > 1)
    K += std::string("/") + vm::gcVariantName(C.Opt.GcVariant) +
         (C.Opt.Governor ? "/governed" : "");
  return K;
}

const WorkloadSpec &spec(const char *Name) { return *findWorkload(Name); }

WorkloadConfig configFor(const Options &O, double DefaultScale) {
  WorkloadConfig Cfg;
  Cfg.Seed = O.Seed;
  Cfg.Scale = O.Scale > 0 ? O.Scale : DefaultScale;
  return Cfg;
}

std::optional<Reference> loadReference(const Options &O, const RunKey &Key) {
  std::string Error;
  std::optional<Reference> Ref = Reference::load(O.ReferenceDir, Key, Error);
  if (!Error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
    std::exit(1);
  }
  return Ref;
}

/// The figures plan, or (\p PaperSubset) only the cells paper_err_pp
/// reads: jess, db, Euler x {BASELINE, INTER+INTRA} on both machines.
CheckedPlan figuresPlan(const Options &O, bool PaperSubset) {
  CheckedPlan P;
  WorkloadConfig Cfg = configFor(O, 1.0);
  std::vector<const WorkloadSpec *> Specs;
  std::vector<Algorithm> Algos{Algorithm::Baseline, Algorithm::Inter,
                               Algorithm::InterIntra};
  if (PaperSubset) {
    for (const PaperSpeedup &S : PaperSpeedups)
      Specs.push_back(&spec(S.Workload));
    Algos = {Algorithm::Baseline, Algorithm::InterIntra};
  } else {
    for (const WorkloadSpec &S : allWorkloads())
      Specs.push_back(&S);
  }
  P.Plan.addSweep(Specs, Algos, {*sim::MachineConfig::byName("pentium4")},
                  Cfg, "p4");
  P.Plan.addSweep(Specs, Algos, {*sim::MachineConfig::byName("athlonmp")},
                  Cfg, "athlon");
  P.Key = {"figures", O.Seed, Cfg.Scale, 1};
  return P;
}

/// The bench/adaptation grid at AdaptEpochs. Every cell's epoch-0 return
/// value is checked against its variant's BASELINE cell.
CheckedPlan adaptationPlan(const Options &O) {
  CheckedPlan P;
  WorkloadConfig Cfg = configFor(O, AdaptScale);
  const sim::MachineConfig P4 = *sim::MachineConfig::byName("pentium4");
  auto Add = [&](const WorkloadSpec &S, Algorithm A, vm::GcVariant V,
                 bool Governor, std::optional<unsigned> Against) {
    harness::ExperimentCell C;
    C.Group = std::string("adapt:") + vm::gcVariantName(V);
    C.Spec = &S;
    C.Opt.Machine = P4;
    C.Opt.Algo = A;
    C.Opt.Config = Cfg;
    C.Opt.Epochs = AdaptEpochs;
    C.Opt.GcVariant = V;
    C.Opt.Governor = Governor;
    C.CheckAgainst = Against;
    return P.Plan.add(std::move(C));
  };
  for (const char *Name : {"db", "jack", "MonteCarlo"}) {
    const WorkloadSpec &S = spec(Name);
    std::optional<unsigned> Compact;
    for (vm::GcVariant V :
         {vm::GcVariant::MarkSweep, vm::GcVariant::AddressShuffle,
          vm::GcVariant::PromotionOrder}) {
      unsigned Base = Add(S, Algorithm::Baseline, V, false, std::nullopt);
      Add(S, Algorithm::InterIntra, V, false, Base);
      Add(S, Algorithm::InterIntra, V, true, Base);
      if (!Compact)
        Compact = Add(S, Algorithm::InterIntra, vm::GcVariant::SlidingCompact,
                      false, Base);
    }
  }
  P.Key = {"adaptation", O.Seed, Cfg.Scale, AdaptEpochs};
  return P;
}

/// Checks every cell of a finished plan; returns the cells' fingerprints.
std::map<std::string, Fingerprint>
checkPlan(const CheckedPlan &P, const harness::ExperimentResult &R, Tally &T) {
  std::set<unsigned> Quarantined;
  for (const harness::QuarantineRecord &Q : R.Quarantine)
    Quarantined.insert(Q.CellIndex);
  std::map<std::string, Fingerprint> Prints;
  for (unsigned I = 0; I != P.Plan.size(); ++I) {
    const harness::ExperimentCell &C = P.Plan.cells()[I];
    const harness::CellResult &CR = R.Cells[I];
    std::string Key = cellKey(C);
    std::string Why;
    if (!CR.Ran || CR.Failed || CR.TimedOut || Quarantined.count(I))
      Why = "did not complete: " + CR.Error;
    else if (!CR.Run.SelfCheckOk)
      Why = "self-check failed";
    else if (C.CheckAgainst &&
             R.run(*C.CheckAgainst).ReturnValue != CR.Run.ReturnValue)
      Why = "return value differs from BASELINE";
    Fingerprint F = cellFingerprint(CR.Run);
    std::string RefWhy;
    if (Why.empty() && P.Ref && !P.Ref->matches(Key, F, RefWhy))
      Why = "reference mismatch: " + RefWhy;
    T.op(Why.empty(), P.Key.Workload + " " + Key + ": " + Why);
    Prints[Key] = std::move(F);
  }
  return Prints;
}

/// Mean absolute difference, in percentage points, between the simulated
/// and the paper's INTER+INTRA speed-ups (PaperSpeedups).
double paperErrPp(const CheckedPlan &P, const harness::ExperimentResult &R) {
  std::map<std::string, unsigned> Index;
  for (unsigned I = 0; I != P.Plan.size(); ++I)
    Index[cellKey(P.Plan.cells()[I])] = I;
  double Sum = 0;
  unsigned N = 0;
  for (const PaperSpeedup &S : PaperSpeedups) {
    for (auto [Machine, Paper] : {std::pair<const char *, double>{"pentium4",
                                                                  S.P4},
                                  {"athlonmp", S.Athlon}}) {
      std::string Prefix = std::string(S.Workload) + "/" +
                           sim::MachineConfig::byName(Machine)->Name + "/";
      const RunResult &Base = R.run(Index.at(Prefix + "BASELINE"));
      const RunResult &Opt = R.run(Index.at(Prefix + "INTER+INTRA"));
      Sum += std::fabs(speedupPercent(Base, Opt,
                                      spec(S.Workload).CompiledFraction) -
                       Paper);
      ++N;
    }
  }
  return Sum / N;
}

/// Governed against ungoverned cycles, in percent, summed over every
/// perturbing variant and workload: above 100 means the governor hurts.
double governorCyclesPct(const CheckedPlan &P,
                         const harness::ExperimentResult &R) {
  double On = 0, Off = 0;
  for (unsigned I = 0; I != P.Plan.size(); ++I) {
    const RunOptions &Opt = P.Plan.cells()[I].Opt;
    if (Opt.Algo != Algorithm::InterIntra ||
        Opt.GcVariant == vm::GcVariant::SlidingCompact)
      continue;
    (Opt.Governor ? On : Off) +=
        static_cast<double>(R.run(I).CompiledCycles);
  }
  return Off > 0 ? 100.0 * On / Off : 0.0;
}

/// Runs a plan once through runPlan (default execution sharing, tracing
/// off), then loads its reference and checks it.
struct PlanRun {
  harness::ExperimentResult Result;
  std::map<std::string, Fingerprint> Prints;
  double StartS = 0;
  double WallS = 0;
  double CpuS = 0;
};
/// With \p Speed, the calibration kernel runs between cells (runPlan polls
/// its stop hook there; one worker, so always on this thread) and its time
/// is taken out of WallS and CpuS.
PlanRun runChecked(CheckedPlan &P, const Options &O, unsigned Jobs,
                   Tally &T, HostSpeed *Speed = nullptr) {
  PlanRun Out;
  harness::RunPlanOptions Opts;
  if (Speed)
    Opts.Governor.ExternalStop = [Speed] {
      Speed->sample();
      return false;
    };
  double Spent0 = Speed ? Speed->spentS() : 0.0;
  double Cpu0 = processCpuS();
  Out.StartS = nowS();
  Out.Result = harness::runPlan(P.Plan, Jobs, Opts);
  double Kernel = Speed ? Speed->spentS() - Spent0 : 0.0;
  Out.WallS = nowS() - Out.StartS - Kernel;
  Out.CpuS = processCpuS() - Cpu0 - Kernel;
  P.Ref = loadReference(O, P.Key);
  Out.Prints = checkPlan(P, Out.Result, T);
  return Out;
}

/// One repetition of a workload's measured phase.
struct Rep {
  double SetupS = 0; ///< compile only: the world builds.
  double WallS = 0;
  double CpuS = 0;
  std::map<std::string, Fingerprint> Prints;
};

RunKey compileKey(const Options &O) {
  return {"compile", O.Seed, configFor(O, 1.0).Scale, 1};
}

/// The compile workload's configurations, in order.
struct CompileConfig {
  const char *Machine;
  Algorithm Algo;
};
constexpr CompileConfig CompileConfigs[] = {
    {"pentium4", Algorithm::Inter},
    {"pentium4", Algorithm::InterIntra},
    {"athlonmp", Algorithm::Inter},
    {"athlonmp", Algorithm::InterIntra},
};

/// One compile repetition: for every configuration and Table-3 workload,
/// build a fresh world (set-up) and compile all of its units (measured).
/// A world whose compile fingerprint mismatches counts all its methods
/// as failed.
Rep compileRep(const Options &O, const std::optional<Reference> &Ref,
               Ledger *L, Tally &T, HostSpeed *Speed = nullptr) {
  Rep R;
  WorkloadConfig Cfg = configFor(O, 1.0);
  for (const CompileConfig &CC : CompileConfigs) {
    sim::MachineConfig M = *sim::MachineConfig::byName(CC.Machine);
    for (const WorkloadSpec &S : allWorkloads()) {
      CompiledWorld W = compileWorld(S, Cfg, M, CC.Algo, L);
      if (Speed)
        Speed->sample();
      R.SetupS += W.BuildS;
      R.WallS += W.CompileS;
      R.CpuS += W.CompileCpuS;
      std::string Key = S.Name + "/" + M.Name + "/" + algorithmName(CC.Algo);
      std::string Why;
      if (Ref && !Ref->matches(Key, W.Print, Why))
        T.op(false, "compile " + Key + ": reference mismatch: " + Why,
             W.Methods);
      else
        T.op(W.VerifyFailures == 0,
             "compile " + Key + ": " + std::to_string(W.VerifyFailures) +
                 " method(s) failed verification",
             W.Methods);
      R.Prints[Key] = std::move(W.Print);
    }
  }
  return R;
}

/// Counts one more failed operation for every operation of \p Got that
/// differs from the first repetition (the program is deterministic).
void checkRepeat(const std::map<std::string, Fingerprint> &First,
                 const std::map<std::string, Fingerprint> &Got,
                 const std::string &Workload, Tally &T) {
  for (const auto &[Key, F] : Got) {
    auto It = First.find(Key);
    if (It == First.end() || It->second != F)
      T.op(false, Workload + " " + Key + ": differs from the first repetition");
  }
}

void storeReference(const Options &O, const RunKey &Key,
                    const std::map<std::string, Fingerprint> &Prints) {
  std::string Error;
  std::filesystem::create_directories(O.ReferenceDir);
  if (!Reference::store(O.ReferenceDir, Key, Prints, Error)) {
    std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
    std::exit(1);
  }
  std::fprintf(stderr, "perfbench: wrote %s\n",
               referencePath(O.ReferenceDir, Key).c_str());
}

using MetricValues = std::map<std::string, double>;

/// Set-up of a runPlan workload is starting the benchmark process and
/// planning the cells: the median over SetupProbes launches of this
/// binary with --setup-probe, from spawn to the plan being ready.
double probeSetupS(const Options &O) {
  std::vector<std::string> Args = {
      "/proc/self/exe", "--workload", O.Workload, "--seed",
      std::to_string(O.Seed), "--scale", std::to_string(O.Scale),
      "--setup-probe"};
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  // Probe children run on this thread's CPU: one started on another, idle
  // CPU takes a random extra 0.4 ms to get going.
  cpu_set_t Saved, Here;
  sched_getaffinity(0, sizeof(Saved), &Saved);
  CPU_ZERO(&Here);
  CPU_SET(sched_getcpu(), &Here);
  sched_setaffinity(0, sizeof(Here), &Here);
  std::vector<double> Samples;
  for (unsigned I = 0; I != SetupProbes; ++I) {
    int Pipe[2];
    if (pipe(Pipe) != 0)
      throw std::runtime_error("setup probe: pipe failed");
    posix_spawn_file_actions_t Actions;
    posix_spawn_file_actions_init(&Actions);
    posix_spawn_file_actions_adddup2(&Actions, Pipe[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&Actions, Pipe[0]);
    pid_t Pid = 0;
    double Start = nowS();
    int Err = posix_spawn(&Pid, Argv[0], &Actions, nullptr, Argv.data(),
                          environ);
    posix_spawn_file_actions_destroy(&Actions);
    close(Pipe[1]);
    std::string Out;
    char Buf[64];
    for (ssize_t N; Err == 0 && (N = read(Pipe[0], Buf, sizeof(Buf))) > 0;)
      Out.append(Buf, static_cast<size_t>(N));
    close(Pipe[0]);
    int Status = 0;
    if (Err != 0 || waitpid(Pid, &Status, 0) != Pid || !WIFEXITED(Status) ||
        WEXITSTATUS(Status) != 0 || Out.empty())
      throw std::runtime_error("setup probe failed");
    Samples.push_back(std::stod(Out) - Start);
  }
  sched_setaffinity(0, sizeof(Saved), &Saved);
  return median(Samples);
}

/// --trace 0: repeat the measured phase for O.Seconds, then compute the
/// fidelity metrics the workload does not produce itself from their own
/// plans, after peak RSS has been read.
MetricValues measure(const Options &O, Tally &T) {
  const double Setup = O.Workload == "compile" ? 0.0 : probeSetupS(O);
  std::vector<Rep> Reps;
  std::optional<double> PaperErr, GovernorPct;
  RunKey Key = compileKey(O);
  std::optional<Reference> CompileRef;
  if (O.Workload == "compile")
    CompileRef = loadReference(O, Key);
  HostSpeed Speed;
  const double Begin = nowS();
  double RepS = 0;
  do {
    const double RepStart = nowS();
    Rep R;
    if (O.Workload == "compile") {
      R = compileRep(O, CompileRef, nullptr, T, &Speed);
    } else {
      CheckedPlan P =
          O.Workload == "figures" ? figuresPlan(O, false) : adaptationPlan(O);
      PlanRun Run = runChecked(P, O, MeasuredJobs, T, &Speed);
      Key = P.Key;
      R.WallS = Run.WallS;
      R.CpuS = Run.CpuS;
      R.Prints = std::move(Run.Prints);
      if (O.Workload == "figures")
        PaperErr = paperErrPp(P, Run.Result);
      else
        GovernorPct = governorCyclesPct(P, Run.Result);
    }
    if (!Reps.empty())
      checkRepeat(Reps.front().Prints, R.Prints, O.Workload, T);
    Reps.push_back(std::move(R));
    std::fprintf(stderr, "perfbench: %s rep %zu: wall %.4f s, cpu %.4f s\n",
                 O.Workload.c_str(), Reps.size(), Reps.back().WallS,
                 Reps.back().CpuS);
    RepS = nowS() - RepStart;
  } while (nowS() - Begin + RepS <= O.Seconds);
  if (O.WriteReference)
    storeReference(O, Key, Reps.front().Prints);

  MetricValues M;
  auto Med = [&](double Rep::*Field) {
    std::vector<double> V;
    for (const Rep &R : Reps)
      V.push_back(R.*Field);
    return median(V);
  };
  const double F = Speed.factor();
  std::fprintf(stderr, "perfbench: host speed factor %.4f; raw wall %.4f s, "
               "setup %.6f s\n", F, Med(&Rep::WallS),
               O.Workload == "compile" ? Med(&Rep::SetupS) : Setup);
  M["wall_s"] = F * Med(&Rep::WallS);
  M["cpu_s"] = F * Med(&Rep::CpuS);
  // compile sets up before every repetition; the others once, from launch.
  M["setup_s"] = F * (O.Workload == "compile" ? Med(&Rep::SetupS) : Setup);
  M["peak_rss_mb"] = peakRssMb();

  if (!PaperErr) {
    CheckedPlan P = figuresPlan(O, /*PaperSubset=*/true);
    PaperErr = paperErrPp(P, runChecked(P, O, HelperJobs, T).Result);
  }
  if (!GovernorPct) {
    CheckedPlan P = adaptationPlan(O);
    GovernorPct = governorCyclesPct(P, runChecked(P, O, HelperJobs, T).Result);
  }
  M["paper_err_pp"] = *PaperErr;
  M["governor_cycles_pct"] = *GovernorPct;
  M["pass_share"] =
      1.0 - static_cast<double>(T.Failed) / static_cast<double>(T.Attempted);
  return M;
}

/// Runs every cell of \p P through traceCell on \p Jobs workers; with a
/// ledger, checks each against \p Expected (runPlan's fingerprints and
/// memory statistics). Returns the wall seconds.
double tracePlan(const CheckedPlan &P, const harness::ExperimentResult &Expected,
                 unsigned Jobs, Ledger *L, Tally &T) {
  std::mutex Mu;
  double Start = nowS();
  {
    harness::ThreadPool Pool(Jobs);
    for (unsigned I = 0; I != P.Plan.size(); ++I) {
      Pool.async([&, I] {
        const harness::ExperimentCell &C = P.Plan.cells()[I];
        Ledger Local;
        std::string Why;
        try {
          TracedCell Got = traceCell(C, L ? &Local : nullptr);
          const RunResult &Want = Expected.run(I);
          if (!Got.VerifyOk)
            Why = "a method failed verification";
          else if (Got.Print != cellFingerprint(Want) || !(Got.Mem == Want.Mem))
            Why = "traced statistics differ from runPlan";
        } catch (const std::exception &E) {
          Why = std::string("threw: ") + E.what();
        }
        std::lock_guard<std::mutex> Lock(Mu);
        if (!L)
          return;
        T.op(Why.empty(), "traced " + cellKey(C) + ": " + Why);
        L->merge(std::move(Local));
      });
    }
    Pool.wait();
  }
  return nowS() - Start;
}

/// --trace 1: one untraced and one traced run; returns per-layer metrics
/// and writes the Chrome trace and layer JSON.
MetricValues traceRun(const Options &O, Tally &T) {
  Ledger L;
  double TracedS = 0, UntracedS = 0;
  MetricValues M;
  std::set<std::string> Worlds;
  if (O.Workload == "compile") {
    std::optional<Reference> Ref = loadReference(O, compileKey(O));
    Tally Ignored;
    double Start = nowS();
    compileRep(O, Ref, nullptr, Ignored);
    UntracedS = nowS() - Start;
    Start = nowS();
    compileRep(O, Ref, &L, T);
    TracedS = nowS() - Start;
    for (const WorkloadSpec &S : allWorkloads())
      Worlds.insert(S.Name);
  } else {
    CheckedPlan P =
        O.Workload == "figures" ? figuresPlan(O, false) : adaptationPlan(O);
    PlanRun Run = runChecked(P, O, MeasuredJobs, T);
    M["harness.cells"] = static_cast<double>(P.Plan.size());
    double Interpreted = 0;
    for (const harness::CellResult &C : Run.Result.Cells)
      Interpreted += !C.Run.Replayed;
    M["harness.cells_interpreted"] = Interpreted;
    M["harness.parallel_eff"] = Run.CpuS / (Run.WallS * MeasuredJobs);
    TracedS = tracePlan(P, Run.Result, HelperJobs, &L, T);
    UntracedS = tracePlan(P, Run.Result, HelperJobs, nullptr, T);
    for (const harness::ExperimentCell &C : P.Plan.cells())
      Worlds.insert(C.Spec->Name);
  }

  for (const char *Calls :
       {"workloads.build_ms", "jit.compile_us", "vm.gc_ms", "sim.ctor_ms"}) {
    CallSummary S = summarize(L.Calls[Calls]);
    std::string N = Calls;
    M[N + ".p50"] = S.P50;
    M[N + ".tail"] = S.Tail;
    M[N + ".tail_pct"] = S.TailPct;
    M[N + ".n"] = static_cast<double>(S.N);
  }
  M["workloads.distinct_worlds"] = static_cast<double>(Worlds.size());
  M["vm.collections"] = M["vm.gc_ms.n"];
  double CompileS = L.get("jit.compile_s");
  M["core.pass_share_pct"] =
      CompileS > 0 ? 100.0 * L.get("core.pass_s") / CompileS : 0.0;
  double InterpS = L.get("exec.interp_s");
  M["exec.minst_per_s"] =
      InterpS > 0 ? L.get("exec.retired") / InterpS / 1e6 : 0.0;
  M["sim.model_s"] = std::max(0.0, L.get("sim.interp_s") - InterpS);
  double Events = L.get("exec.mem_events");
  M["sim.ns_per_event"] = Events > 0 ? M["sim.model_s"] * 1e9 / Events : 0.0;
  double Issued = L.get("sim.sw_issued");
  M["sim.sw_prefetch_useful_ratio"] =
      Issued > 0 ? L.get("sim.sw_useful") / Issued : 0.0;
  M["obs.trace_overhead_pct"] = 100.0 * (TracedS / UntracedS - 1.0);
  // Every other per-layer metric is a ledger total.
  for (const Metric &Me : PerLayer)
    M.try_emplace(Me.Name, L.get(Me.Name));

  std::filesystem::create_directories(O.OutDir);
  std::string Stem =
      O.OutDir + "/" + O.Workload + "-" + std::to_string(O.Seed);
  std::ofstream Trace(Stem + ".trace.json", std::ios::trunc);
  L.writeChromeTrace(Trace);
  std::ofstream Layers(Stem + ".layers.json", std::ios::trunc);
  harness::JsonWriter J(Layers);
  J.beginObject();
  for (const Metric &Me : PerLayer)
    J.key(Me.Name).value(M[Me.Name]);
  J.endObject();
  Layers << '\n';
  std::fprintf(stderr, "perfbench: wrote %s.trace.json and %s.layers.json\n",
               Stem.c_str(), Stem.c_str());
  return M;
}

[[noreturn]] void usage(const std::string &Error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "figures|adaptation|compile [--seed N] [--seconds S] "
               "[--trace 0|1] [--scale X] [--reference-dir DIR] "
               "[--out-dir DIR] [--write-reference]\n",
               Error.c_str());
  std::exit(2);
}

Options parseArgs(int argc, char **argv) {
  Options O;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= argc)
        usage("missing value for " + A);
      return argv[++I];
    };
    try {
      if (A == "--workload")
        O.Workload = Next();
      else if (A == "--seed")
        O.Seed = std::stoull(Next());
      else if (A == "--seconds")
        O.Seconds = std::stod(Next());
      else if (A == "--trace")
        O.Trace = std::stoi(Next()) != 0;
      else if (A == "--scale")
        O.Scale = std::stod(Next());
      else if (A == "--reference-dir")
        O.ReferenceDir = Next();
      else if (A == "--out-dir")
        O.OutDir = Next();
      else if (A == "--write-reference")
        O.WriteReference = true;
      else if (A == "--setup-probe")
        O.SetupProbe = true;
      else
        usage("unknown argument " + A);
    } catch (const std::logic_error &) {
      usage("bad value for " + A);
    }
  }
  if (O.Workload != "figures" && O.Workload != "adaptation" &&
      O.Workload != "compile")
    usage("unknown workload '" + O.Workload + "'");
  if (O.Seconds <= 0 || O.Scale < 0)
    usage("--seconds must be positive and --scale non-negative");
  return O;
}

} // namespace

int main(int argc, char **argv) {
  Options O = parseArgs(argc, argv);
  if (O.SetupProbe) {
    O.Workload == "figures" ? figuresPlan(O, false) : adaptationPlan(O);
    std::printf("%.9f\n", nowS());
    return 0;
  }
  Tally T;
  MetricValues M = O.Trace ? traceRun(O, T) : measure(O, T);

  std::ostringstream OS;
  harness::JsonWriter J(OS);
  J.beginObject();
  J.key("correct").value(T.Failed == 0 && T.Attempted > 0);
  J.key("attempted").value(T.Attempted);
  J.key("failed").value(T.Failed);
  J.key("metrics").beginObject();
  for (const Metric &Me : O.Trace ? std::span<const Metric>(PerLayer)
                                  : std::span<const Metric>(EndToEnd)) {
    double V = M[Me.Name];
    J.key(Me.Name).beginObject();
    J.key("value").value(std::isfinite(V) ? V : 0.0);
    J.key("unit").value(Me.Unit);
    J.endObject();
  }
  J.endObject();
  J.endObject();
  std::cout << OS.str() << std::endl;
  return 0;
}
