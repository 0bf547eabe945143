//===- bench/sweep.cpp - The whole evaluation in one shared pool ----------===//
///
/// Runs every cell behind Figures 6-10 — 12 workloads x {BASELINE, INTER,
/// INTER+INTRA} x {Pentium 4, Athlon MP} — as one experiment plan on one
/// worker pool, prints the paper-style tables, and writes a
/// machine-readable JSON report (format: DESIGN.md, "JSON report").
///
/// Usage:
///   sweep [--jobs N] [--json FILE] [--workloads a,b,c]
///         [--machine NAME] [--machine-file FILE] [--hw-prefetch KIND]
///         [--epochs N] [--gc-variant KIND] [--governor on|off]
///         [--phase-change] [--profile-out FILE]
///
///   --jobs N          worker threads, 1..1024 (default: hardware
///                     concurrency); results are bit-identical for any N
///   --json FILE       report path (default: sweep_report.json; "-" for
///                     stdout); each cell carries its compile and
///                     governor decisions (`spf-report show` prints them)
///   --workloads CSV   restrict to a comma-separated subset of Table 3
///                     workload names
///   --machine NAME    replace the default Pentium4+AthlonMP plan with a
///                     prefetch-source sweep (none/sw/hw/combined per
///                     workload) on the named registry machine
///                     (pentium4, athlonmp, modern3l; repeatable)
///   --machine-file F  same, for a machine described by a JSON file
///                     (machines/*.json schema, see DESIGN.md; repeatable
///                     and combinable with --machine)
///   --hw-prefetch K   override the hardware prefetcher kind of every
///                     selected machine (none | stream | rpt); with no
///                     --machine/--machine-file it applies to the default
///                     Pentium4+AthlonMP plan
///   --epochs N        run every cell's entry method N times with a full
///                     GC at each epoch boundary (default 1 = classic
///                     single-shot run)
///   --gc-variant K    GC perturbation variant at epoch boundaries:
///                     sliding-compact (default) | mark-sweep |
///                     address-shuffle | promotion-order
///   --governor on|off enable the online prefetch-health governor, which
///                     quarantines inaccurate prefetch sites at epoch
///                     boundaries and re-inspects once when two or more
///                     go in one epoch; a governed cell shares an
///                     execution until its governor acts
///   --phase-change    shuffle every Ref array's element order at the
///                     middle epoch boundary, breaking inspected stride
///                     patterns mid-run
///   --profile-out F   write a Chrome trace_event JSON timeline of the
///                     whole sweep (open in chrome://tracing or
///                     ui.perfetto.dev)
///   SPF_SCALE=0.1     reduced problem scale, as for every bench binary
///
/// Exit code is 1 when any cell fails, fails its workload self-check or
/// changes a result under prefetching, and 2 for an unknown argument or
/// a malformed flag or SPF_* value.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <chrono>
#include <sstream>

using namespace spf;
using namespace spf::bench;
using namespace spf::workloads;

namespace {

/// The Table 3 workloads restricted to \p Csv (all of them when empty).
std::vector<const WorkloadSpec *> selectWorkloads(const std::string &Csv) {
  std::vector<const WorkloadSpec *> Specs;
  if (Csv.empty()) {
    for (const WorkloadSpec &S : allWorkloads())
      Specs.push_back(&S);
    return Specs;
  }
  std::stringstream SS(Csv);
  std::string Name;
  while (std::getline(SS, Name, ',')) {
    if (const WorkloadSpec *S = findWorkload(Name))
      Specs.push_back(S);
    else
      reportFailure("unknown workload '" + Name + "'");
  }
  return Specs;
}

/// Per-workload rows of one machine's block of the plan.
std::vector<WorkloadRuns>
collectBlock(const harness::ExperimentResult &Result,
             const std::vector<const WorkloadSpec *> &Specs,
             unsigned First) {
  std::vector<WorkloadRuns> Rows;
  unsigned I = First;
  for (const WorkloadSpec *Spec : Specs) {
    WorkloadRuns Row;
    Row.Spec = Spec;
    Row.Base = Result.run(I);
    Row.Inter = Result.run(I + 1);
    Row.Intra = Result.run(I + 2);
    Rows.push_back(std::move(Row));
    I += 3;
  }
  return Rows;
}

void printSpeedups(const char *Title,
                   const std::vector<WorkloadRuns> &Rows) {
  std::printf("\n%s\n", Title);
  std::printf("%-12s %10s %12s\n", "benchmark", "INTER", "INTER+INTRA");
  for (const WorkloadRuns &Row : Rows)
    std::printf("%-12s %9.1f%% %11.1f%%\n", Row.Spec->Name.c_str(),
                speedup(Row, Row.Inter), speedup(Row, Row.Intra));
}

/// Per-cell wall-clock accounting: how long each interpreted cell took,
/// and which cells shared another cell's execution.
void printCellTimings(const harness::ExperimentPlan &Plan,
                      const harness::ExperimentResult &Result) {
  std::printf("\nPer-cell wall clock (one execution per compiled program, "
              "one simulation per machine)\n");
  std::printf("%-12s %-9s %-12s %12s\n", "benchmark", "machine",
              "algorithm", "interpret_us");
  unsigned Shared = 0;
  for (unsigned I = 0, E = static_cast<unsigned>(Plan.size()); I != E;
       ++I) {
    const harness::ExperimentCell &C = Plan.cells()[I];
    const workloads::RunResult &R = Result.run(I);
    if (!Result.Cells[I].Ran)
      continue;
    Shared += R.Replayed;
    std::printf("%-12s %-9s %-12s %12.0f%s\n", C.Spec->Name.c_str(),
                C.Opt.Machine.Name.c_str(),
                workloads::algorithmName(C.Opt.Algo), R.InterpretUs,
                R.Replayed ? "  (shared)" : "");
  }
  std::printf("execution sharing: %u of %zu cell(s) shared an execution\n",
              Shared, Plan.size());
}

/// Misses per retired instruction, BASELINE vs INTER+INTRA. With
/// \p RetiredIncrease, also the percentage of extra instructions
/// INTER+INTRA retires, which the paper reports with Figure 8.
void printMpi(const char *Title, const std::vector<WorkloadRuns> &Rows,
              uint64_t sim::MemoryStats::*Counter,
              bool RetiredIncrease = false) {
  std::printf("\n%s\n", Title);
  std::printf("%-12s %10s %12s", "benchmark", "BASELINE", "INTER+INTRA");
  if (RetiredIncrease)
    std::printf(" %10s", "retired+");
  std::printf("\n");
  for (const WorkloadRuns &Row : Rows) {
    std::printf("%-12s %10.5f %12.5f", Row.Spec->Name.c_str(),
                perInstruction(Row.Base.Mem.*Counter, Row.Base.Retired),
                perInstruction(Row.Intra.Mem.*Counter, Row.Intra.Retired));
    if (RetiredIncrease)
      std::printf(" %9.1f%%", (static_cast<double>(Row.Intra.Retired) /
                                   static_cast<double>(Row.Base.Retired) -
                               1.0) *
                                  100.0);
    std::printf("\n");
  }
}

/// One machine's block of a prefetch-source sweep: cycles per mode, with
/// the speedup each prefetch source buys over the unprefetched baseline.
void printModeTable(const sim::MachineConfig &M,
                    const std::vector<const WorkloadSpec *> &Specs,
                    const std::vector<harness::PrefetchSources> &Modes,
                    const harness::ExperimentResult &Result,
                    unsigned First) {
  std::printf("\nPrefetch sources on %s (%u levels, hw prefetcher: %s, "
              "tlb: %s): cycles [speedup vs none]\n",
              M.Name.c_str(), M.numLevels(),
              sim::hwPrefetchKindName(M.HwPrefetch), sim::tlbWalkName(M.Walk));
  std::printf("%-12s", "benchmark");
  for (harness::PrefetchSources Mode : Modes)
    std::printf(" %18s", harness::prefetchSourcesName(Mode));
  std::printf("\n");
  unsigned I = First;
  for (const WorkloadSpec *Spec : Specs) {
    std::printf("%-12s", Spec->Name.c_str());
    uint64_t NoneCycles = 0;
    for (size_t K = 0; K != Modes.size(); ++K) {
      const RunResult &R = Result.run(I + static_cast<unsigned>(K));
      if (Modes[K] == harness::PrefetchSources::None)
        NoneCycles = R.CompiledCycles;
      if (NoneCycles && Modes[K] != harness::PrefetchSources::None &&
          R.CompiledCycles) {
        double Pct = 100.0 * (static_cast<double>(NoneCycles) /
                                  static_cast<double>(R.CompiledCycles) -
                              1.0);
        std::printf(" %11llu %+5.1f%%",
                    static_cast<unsigned long long>(R.CompiledCycles), Pct);
      } else {
        std::printf(" %11llu       ",
                    static_cast<unsigned long long>(R.CompiledCycles));
      }
    }
    std::printf("\n");
    I += static_cast<unsigned>(Modes.size());
  }
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = "sweep_report.json";
  std::string WorkloadCsv;
  // --machine/--machine-file select machines for a prefetch-source sweep
  // (none/sw/hw/combined per workload); --hw-prefetch overrides every
  // selected machine's hardware prefetcher kind. Without a machine
  // selection the classic Pentium4+AthlonMP algorithm sweep runs.
  // --epochs/--gc-variant/--governor/--phase-change season every planned
  // cell; with all four at their defaults the sweep is byte-identical to
  // the classic single-epoch run.
  MachineArgs MachineSel;
  AdaptationKnobs Adapt;
  std::vector<Flag> Flags = MachineSel.flags();
  for (Flag &F : Adapt.flags())
    Flags.push_back(std::move(F));
  Flags.push_back(stringFlag("--json", JsonPath));
  Flags.push_back(stringFlag("--workloads", WorkloadCsv));
  init(argc, argv, std::move(Flags));
  unsigned Jobs = cli().Jobs;
  std::vector<sim::MachineConfig> &Machines = MachineSel.Machines;
  const auto &HwOverride = MachineSel.HwOverride;
  if (HwOverride)
    for (sim::MachineConfig &M : Machines)
      M.HwPrefetch = *HwOverride;
  const bool ModeSweep = !Machines.empty();

  std::vector<const WorkloadSpec *> Specs = selectWorkloads(WorkloadCsv);
  if (Specs.empty()) {
    reportFailure("no workloads selected");
    return exitCode();
  }

  harness::ExperimentPlan Plan;
  const std::vector<Algorithm> Algos{
      Algorithm::Baseline, Algorithm::Inter, Algorithm::InterIntra};
  const std::vector<harness::PrefetchSources> Modes{
      harness::PrefetchSources::None, harness::PrefetchSources::SwOnly,
      harness::PrefetchSources::HwOnly, harness::PrefetchSources::Combined};
  std::vector<unsigned> P4Cells, AthlonCells;
  std::vector<unsigned> MachineFirstCell;
  if (ModeSweep) {
    for (const sim::MachineConfig &M : Machines)
      MachineFirstCell.push_back(
          Plan.addModeSweep(Specs, Modes, {M}, benchConfig(),
                            "machine:" + M.Name)
              .front());
  } else {
    sim::MachineConfig P4 = *sim::MachineConfig::byName("pentium4");
    sim::MachineConfig Athlon = *sim::MachineConfig::byName("athlonmp");
    if (HwOverride) {
      P4.HwPrefetch = *HwOverride;
      Athlon.HwPrefetch = *HwOverride;
    }
    P4Cells = Plan.addSweep(Specs, Algos, {P4}, benchConfig(), "p4");
    AthlonCells =
        Plan.addSweep(Specs, Algos, {Athlon}, benchConfig(), "athlon");
  }

  for (harness::ExperimentCell &C : Plan.cells())
    Adapt.applyTo(C.Opt);
  if (Adapt.Epochs > 1 || Adapt.Governor)
    std::printf("sweep: epochs=%u gc-variant=%s governor=%s%s\n",
                Adapt.Epochs, vm::gcVariantName(Adapt.GcVariant),
                Adapt.Governor ? "on" : "off",
                Adapt.PhaseChange ? " phase-change" : "");

  if (ModeSweep)
    std::printf("sweep: %zu cells (%zu workloads x %zu prefetch modes x "
                "%zu machine(s)) on %u worker(s), scale=%.2f\n",
                Plan.size(), Specs.size(), Modes.size(), Machines.size(),
                Jobs, scaleFromEnv());
  else
    std::printf("sweep: %zu cells (%zu workloads x %zu algorithms x 2 "
                "machines) on %u worker(s), scale=%.2f\n",
                Plan.size(), Specs.size(), Algos.size(), Jobs,
                scaleFromEnv());

  auto Start = std::chrono::steady_clock::now();
  harness::ExperimentResult Result = harness::runPlan(Plan, cli().Jobs);
  double Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    Start)
          .count();
  reportPlanFailures(Result);

  // Cells that never produced a result (each is also a Failure).
  if (!Result.Quarantine.empty()) {
    std::printf("\nquarantine: %zu cell(s)\n", Result.Quarantine.size());
    for (const harness::QuarantineRecord &Q : Result.Quarantine)
      std::printf("  [%u] %-40s %s\n", Q.CellIndex, Q.Tag.c_str(),
                  Q.Error.c_str());
  }

  if (ModeSweep) {
    for (size_t K = 0; K != Machines.size(); ++K)
      printModeTable(Machines[K], Specs, Modes, Result, MachineFirstCell[K]);
  } else {
    std::vector<WorkloadRuns> P4Rows =
        collectBlock(Result, Specs, P4Cells.front());
    std::vector<WorkloadRuns> AthlonRows =
        collectBlock(Result, Specs, AthlonCells.front());

    printSpeedups("Figure 6: speedup ratios on the Pentium 4", P4Rows);
    printSpeedups("Figure 7: speedup ratios on the Athlon MP", AthlonRows);
    printMpi("Figure 8: L1 cache load MPIs on the Pentium 4", P4Rows,
             &sim::MemoryStats::L1LoadMisses, /*RetiredIncrease=*/true);
    printMpi("Figure 9: L2 cache load MPIs on the Pentium 4", P4Rows,
             &sim::MemoryStats::L2LoadMisses);
    printMpi("Figure 10: DTLB load MPIs on the Pentium 4", P4Rows,
             &sim::MemoryStats::DtlbLoadMisses);
  }

  printCellTimings(Plan, Result);

  if (!writeReportTo(JsonPath, Plan, Result, scaleFromEnv(), Jobs))
    reportFailure("cannot write JSON report to " + JsonPath);
  else if (JsonPath != "-")
    std::printf("\nJSON report: %s\n", JsonPath.c_str());

  std::printf("sweep: %zu cells in %.1f s on %u worker(s)%s\n",
              Plan.size(), Seconds, Jobs,
              failureCount() ? " — FAILURES (see stderr)" : ", all checks ok");
  return exitCode();
}
