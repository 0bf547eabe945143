//===- bench/adaptation.cpp - Governor recovery under GC perturbation -----===//
///
/// Measures how much of the cycle regression caused by a perturbing GC
/// variant the online prefetch-health governor wins back. For each GC
/// variant x workload it runs four cells over the same multi-epoch
/// program:
///
///   compact   INTER+INTRA, sliding-compact GC   (the healthy reference)
///   disabled  BASELINE,    perturbing variant   (no prefetch = floor)
///   off       INTER+INTRA, perturbing variant   (stale plans, ungoverned)
///   on        INTER+INTRA, perturbing variant + governor
///
/// and reports, per row, the regression each of off/on shows against the
/// compacting reference plus the recovered fraction
///   recovery = (off - on) / (off - compact)
///
/// The binary enforces the robustness contract and exits 1 when it does
/// not hold at this scale:
///   - under address-shuffle, governor-on must recover >= 50% of the
///     governor-off regression on at least MinRecovered workloads;
///   - a governed run must never be slower than the prefetch-disabled
///     floor (beyond a 2% tolerance).
///
/// Usage:
///   adaptation [--out FILE] [--workloads a,b,c] [--epochs N]
///              [--min-recovered N] [--check-against FILE] [--jobs N]
///
///   --out FILE          JSON report path (default: BENCH_adaptation.json;
///                       "-" for stdout). The committed copy at the repo
///                       root is CI's regression baseline.
///   --workloads CSV     workload subset (default: db,jack,MonteCarlo)
///   --epochs N          epochs per cell, >= 2 (default 10; or SPF_EPOCHS)
///   --min-recovered N   how many address-shuffle workloads must clear the
///                       50% recovery bar (default 3, clamped to the
///                       workload count)
///   --check-against F   also load a previous report and fail (exit 1) if
///                       any address-shuffle recovery fraction regressed
///                       by more than 20 points of its baseline value —
///                       the CI gate against the committed report
///   SPF_SCALE=0.1       reduced problem scale, as for every bench binary
///
/// Exit code 1 on any self-check failure, contract violation, or
/// --check-against regression; support::ConfigErrorExit (2) for invalid
/// flags.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "harness/JsonReader.h"
#include "harness/ReportDiff.h"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>

using namespace spf;
using namespace spf::bench;
using namespace spf::workloads;

namespace {

/// The three placement policies that perturb inspected strides.
const vm::GcVariant PerturbingVariants[] = {
    vm::GcVariant::MarkSweep,
    vm::GcVariant::AddressShuffle,
    vm::GcVariant::PromotionOrder,
};

struct WorkloadRow {
  const WorkloadSpec *Spec = nullptr;
  unsigned Compact = 0;  ///< Cell index: INTER+INTRA, sliding-compact.
  unsigned Disabled = 0; ///< Cell index: BASELINE, perturbing variant.
  unsigned Off = 0;      ///< Cell index: INTER+INTRA, ungoverned.
  unsigned On = 0;       ///< Cell index: INTER+INTRA, governed.
};

struct RowResult {
  std::string Workload;
  uint64_t CompactCycles = 0;
  uint64_t DisabledCycles = 0;
  uint64_t OffCycles = 0;
  uint64_t OnCycles = 0;
  double RegressionOffPct = 0; ///< off vs compact, percent.
  double RegressionOnPct = 0;  ///< on vs compact, percent.
  double Recovery = 0;         ///< (off-on)/(off-compact), clamped to [0,1].
  bool Recovered = false;      ///< Recovery >= 0.5 with a real regression.
  bool NeverWorse = false;     ///< on <= disabled * (1 + NeverWorseTolerance).
  unsigned Quarantined = 0;
  unsigned Retunes = 0;
  unsigned Reinspections = 0;
};

/// Slack allowed on the "never slower than prefetch-disabled" contract,
/// absorbing the governed run's first-epoch learning cost.
constexpr double NeverWorseTolerance = 0.02;

std::vector<const WorkloadSpec *> selectWorkloads(const std::string &Csv) {
  std::vector<const WorkloadSpec *> Specs;
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

unsigned addCell(harness::ExperimentPlan &Plan, const WorkloadSpec *Spec,
                 const sim::MachineConfig &Machine, Algorithm Algo,
                 vm::GcVariant Variant, bool Governor, unsigned Epochs,
                 const std::string &Group) {
  harness::ExperimentCell Cell;
  Cell.Group = Group;
  Cell.Spec = Spec;
  Cell.Opt.Machine = Machine;
  Cell.Opt.Algo = Algo;
  Cell.Opt.Config = benchConfig();
  Cell.Opt.Epochs = Epochs;
  Cell.Opt.GcVariant = Variant;
  Cell.Opt.Governor = Governor;
  return Plan.add(std::move(Cell));
}

RowResult foldRow(const WorkloadRow &Row,
                  const harness::ExperimentResult &Result) {
  RowResult R;
  R.Workload = Row.Spec->Name;
  R.CompactCycles = Result.run(Row.Compact).CompiledCycles;
  R.DisabledCycles = Result.run(Row.Disabled).CompiledCycles;
  R.OffCycles = Result.run(Row.Off).CompiledCycles;
  R.OnCycles = Result.run(Row.On).CompiledCycles;
  const RunResult &On = Result.run(Row.On);
  R.Quarantined = On.GovernorQuarantined;
  R.Retunes = On.GovernorRetunes;
  R.Reinspections = On.GovernorReinspections;
  auto Pct = [&](uint64_t Cycles) {
    return R.CompactCycles
               ? 100.0 * (static_cast<double>(Cycles) /
                              static_cast<double>(R.CompactCycles) -
                          1.0)
               : 0.0;
  };
  R.RegressionOffPct = Pct(R.OffCycles);
  R.RegressionOnPct = Pct(R.OnCycles);
  if (R.OffCycles > R.CompactCycles) {
    double Lost = static_cast<double>(R.OffCycles - R.CompactCycles);
    double WonBack = static_cast<double>(R.OffCycles) -
                     static_cast<double>(R.OnCycles);
    R.Recovery = std::min(1.0, std::max(0.0, WonBack / Lost));
    R.Recovered = R.Recovery >= 0.5;
  } else {
    // The variant did not actually regress this workload; the governor
    // has nothing to recover and trivially passes.
    R.Recovery = 1.0;
    R.Recovered = true;
  }
  R.NeverWorse = static_cast<double>(R.OnCycles) <=
                 static_cast<double>(R.DisabledCycles) *
                     (1.0 + NeverWorseTolerance);
  return R;
}

void writeRowJson(harness::JsonWriter &J, const RowResult &R) {
  J.beginObject();
  J.key("workload").value(R.Workload);
  J.key("compact_cycles").value(R.CompactCycles);
  J.key("disabled_cycles").value(R.DisabledCycles);
  J.key("off_cycles").value(R.OffCycles);
  J.key("on_cycles").value(R.OnCycles);
  J.key("regression_off_pct").value(R.RegressionOffPct);
  J.key("regression_on_pct").value(R.RegressionOnPct);
  J.key("recovery").value(R.Recovery);
  J.key("recovered").value(R.Recovered);
  J.key("never_worse_than_disabled").value(R.NeverWorse);
  J.key("governor_quarantined").value(static_cast<uint64_t>(R.Quarantined));
  J.key("governor_retunes").value(static_cast<uint64_t>(R.Retunes));
  J.key("governor_reinspections")
      .value(static_cast<uint64_t>(R.Reinspections));
  J.endObject();
}

/// CI gate: diffs this run's report against the committed baseline
/// through harness::diffReports — the same comparator (and default
/// thresholds: a recovery drop of more than 0.20 is a regression) that
/// `spf-report diff` applies, so this gate and the CLI can never drift
/// apart. \p ReportText is this run's own report JSON.
void checkAgainst(const std::string &Path, const std::string &ReportText) {
  std::ifstream IS(Path);
  if (!IS) {
    reportFailure("--check-against: cannot read " + Path);
    return;
  }
  std::stringstream SS;
  SS << IS.rdbuf();
  std::string Error;
  std::unique_ptr<harness::JsonValue> Baseline =
      harness::JsonValue::parse(SS.str(), &Error);
  if (!Baseline) {
    reportFailure("--check-against: " + Path + ": " + Error);
    return;
  }
  std::unique_ptr<harness::JsonValue> Fresh =
      harness::JsonValue::parse(ReportText, &Error);
  if (!Fresh) {
    reportFailure("--check-against: this run's report: " + Error);
    return;
  }
  harness::DiffResult D =
      harness::diffReports(*Baseline, *Fresh, harness::DiffThresholds());
  if (!D.Comparable) {
    reportFailure("--check-against: " + D.Error);
    return;
  }
  for (const harness::DiffFinding &F : D.Findings)
    if (F.Regression)
      reportFailure("--check-against: " + F.Where + ": " + F.Detail +
                    " (baseline " + std::to_string(F.Ref) + ", this run " +
                    std::to_string(F.Got) + ")");
}

} // namespace

int main(int argc, char **argv) {
  init(argc, argv);
  std::string OutPath = "BENCH_adaptation.json";
  std::string WorkloadCsv = "db,jack,MonteCarlo";
  std::string CheckPath;
  unsigned MinRecovered = 3;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--out" && I + 1 < argc)
      OutPath = argv[++I];
    else if (A.rfind("--out=", 0) == 0)
      OutPath = A.substr(6);
    else if (A == "--workloads" && I + 1 < argc)
      WorkloadCsv = argv[++I];
    else if (A.rfind("--workloads=", 0) == 0)
      WorkloadCsv = A.substr(12);
    else if (A == "--check-against" && I + 1 < argc)
      CheckPath = argv[++I];
    else if (A.rfind("--check-against=", 0) == 0)
      CheckPath = A.substr(16);
    else if (A == "--min-recovered" && I + 1 < argc)
      MinRecovered = static_cast<unsigned>(std::atoi(argv[++I]));
    else if (A.rfind("--min-recovered=", 0) == 0)
      MinRecovered = static_cast<unsigned>(std::atoi(A.c_str() + 16));
  }
  AdaptationKnobs Knobs = adaptationFromArgs(argc, argv);
  // Adaptation needs epoch boundaries to act at; --epochs 1 (or the
  // default) means "use the bench default" here.
  unsigned Epochs = Knobs.Epochs > 1 ? Knobs.Epochs : 10;

  std::vector<const WorkloadSpec *> Specs = selectWorkloads(WorkloadCsv);
  if (Specs.empty()) {
    reportFailure("no workloads selected");
    return exitCode();
  }
  MinRecovered = std::min<unsigned>(
      MinRecovered ? MinRecovered : 1, static_cast<unsigned>(Specs.size()));

  const sim::MachineConfig Machine =
      *sim::MachineConfig::byName("pentium4");

  harness::ExperimentPlan Plan;
  // One compacting reference per workload, shared by every variant.
  std::vector<WorkloadRow> Template;
  for (const WorkloadSpec *Spec : Specs) {
    WorkloadRow Row;
    Row.Spec = Spec;
    Row.Compact =
        addCell(Plan, Spec, Machine, Algorithm::InterIntra,
                vm::GcVariant::SlidingCompact, /*Governor=*/false, Epochs,
                "adapt:compact");
    Template.push_back(Row);
  }
  std::vector<std::vector<WorkloadRow>> VariantRows;
  for (vm::GcVariant V : PerturbingVariants) {
    std::vector<WorkloadRow> Rows = Template;
    std::string Group = std::string("adapt:") + vm::gcVariantName(V);
    for (WorkloadRow &Row : Rows) {
      Row.Disabled = addCell(Plan, Row.Spec, Machine, Algorithm::Baseline,
                             V, /*Governor=*/false, Epochs, Group);
      Row.Off = addCell(Plan, Row.Spec, Machine, Algorithm::InterIntra, V,
                        /*Governor=*/false, Epochs, Group);
      Row.On = addCell(Plan, Row.Spec, Machine, Algorithm::InterIntra, V,
                       /*Governor=*/true, Epochs, Group);
    }
    VariantRows.push_back(std::move(Rows));
  }

  std::printf("adaptation: %zu cells (%zu workloads x %zu variants x "
              "{disabled,off,on} + %zu references), epochs=%u, "
              "scale=%.2f\n",
              Plan.size(), Specs.size(), std::size(PerturbingVariants),
              Specs.size(), Epochs, scaleFromEnv());

  harness::ExperimentResult Result = runPlanCli(Plan);
  reportPlanFailures(Result);

  std::vector<std::vector<RowResult>> Folded;
  for (size_t K = 0; K != std::size(PerturbingVariants); ++K) {
    vm::GcVariant V = PerturbingVariants[K];
    std::vector<RowResult> Rows;
    unsigned Recovered = 0;
    std::printf("\n%s: cycles [regression vs compacting reference]\n",
                vm::gcVariantName(V));
    std::printf("%-12s %12s %12s %12s %12s %9s %6s %6s %6s\n", "benchmark",
                "compact", "disabled", "gov-off", "gov-on", "recovery",
                "quar", "retune", "reinsp");
    for (const WorkloadRow &Row : VariantRows[K]) {
      RowResult R = foldRow(Row, Result);
      std::printf("%-12s %12llu %12llu %12llu %12llu %8.0f%% %6u %6u %6u\n",
                  R.Workload.c_str(),
                  static_cast<unsigned long long>(R.CompactCycles),
                  static_cast<unsigned long long>(R.DisabledCycles),
                  static_cast<unsigned long long>(R.OffCycles),
                  static_cast<unsigned long long>(R.OnCycles),
                  100.0 * R.Recovery, R.Quarantined, R.Retunes,
                  R.Reinspections);
      if (!R.NeverWorse)
        reportFailure("governed run slower than prefetch-disabled on " +
                      R.Workload + " under " + vm::gcVariantName(V) + " (" +
                      std::to_string(R.OnCycles) + " > " +
                      std::to_string(R.DisabledCycles) + " cycles)");
      Recovered += R.Recovered;
      Rows.push_back(std::move(R));
    }
    if (V == vm::GcVariant::AddressShuffle) {
      if (Recovered < MinRecovered)
        reportFailure(
            "address-shuffle: only " + std::to_string(Recovered) + " of " +
            std::to_string(Specs.size()) +
            " workloads recovered >= 50% (need " +
            std::to_string(MinRecovered) + ")");
    }
    Folded.push_back(std::move(Rows));
  }

  auto WriteReport = [&](std::ostream &OS) {
    harness::JsonWriter J(OS);
    J.beginObject();
    J.key("schema").value("spf-bench-adaptation-v1");
    J.key("scale").value(scaleFromEnv());
    J.key("epochs").value(static_cast<uint64_t>(Epochs));
    J.key("machine").value(Machine.Name);
    J.key("variants");
    J.beginArray();
    for (size_t K = 0; K != Folded.size(); ++K) {
      J.beginObject();
      J.key("gc_variant").value(vm::gcVariantName(PerturbingVariants[K]));
      J.key("workloads");
      J.beginArray();
      for (const RowResult &R : Folded[K])
        writeRowJson(J, R);
      J.endArray();
      J.endObject();
    }
    J.endArray();
    J.key("failures").value(static_cast<uint64_t>(failureCount()));
    J.endObject();
    OS << '\n';
  };
  if (!CheckPath.empty()) {
    // Diff against the baseline before the final report is written, so
    // the written report's `failures` count includes any regression the
    // gate finds (matching the pre-comparator behavior).
    std::ostringstream Snapshot;
    WriteReport(Snapshot);
    checkAgainst(CheckPath, Snapshot.str());
  }
  if (OutPath == "-") {
    WriteReport(std::cout);
  } else {
    std::ofstream OS(OutPath, std::ios::trunc);
    if (!OS) {
      reportFailure("cannot write report to " + OutPath);
    } else {
      WriteReport(OS);
      std::printf("\nadaptation report: %s\n", OutPath.c_str());
    }
  }
  return exitCode();
}
