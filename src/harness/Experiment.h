//===- harness/Experiment.h - Parallel experiment driver --------*- C++ -*-===//
///
/// \file
/// The experiment layer behind every figure/ablation binary: a sweep
/// (workloads x algorithms x machine configs x scale) expands into
/// independent cells. The cells of one workload and config form one group
/// that builds one world, interprets one union program and feeds one
/// MemorySystem per distinct (machine, prefetch code) pair
/// (workloads::runSharedExecution); every group owns a private Heap /
/// Interpreter. Groups, and the epoch branches they split into, run
/// concurrently on a fixed-size ThreadPool and results are aggregated
/// deterministically in plan order, so they are bit-identical to a serial
/// run regardless of the worker count (see tests/harness_test.cpp).
///
/// Correctness checking is part of the driver: a cell whose workload
/// self-check fails, or whose return value differs from the baseline
/// cell it is checked against, is recorded as a failure — binaries turn
/// that into a nonzero exit code instead of a stderr-only warning.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_HARNESS_EXPERIMENT_H
#define SPF_HARNESS_EXPERIMENT_H

#include "workloads/Runner.h"

#include <functional>
#include <optional>
#include <string>

namespace spf {
namespace harness {

/// Which prefetch sources a cell enables — the cross of the paper's
/// software pass (compile-time) and the machine's hardware prefetcher
/// (run-time). Unset marks cells from the classic algorithm sweep, which
/// predates this facet; such cells report no prefetch_mode key.
enum class PrefetchSources {
  Unset,    ///< Classic sweep cell: facet not part of the experiment.
  None,     ///< Baseline compile, hardware prefetcher off.
  SwOnly,   ///< INTER+INTRA compile, hardware prefetcher off.
  HwOnly,   ///< Baseline compile, hardware prefetcher on.
  Combined, ///< INTER+INTRA compile, hardware prefetcher on.
};

/// Stable lowercase name ("none", "sw", "hw", "combined"; "" for Unset).
const char *prefetchSourcesName(PrefetchSources S);
/// Inverse of prefetchSourcesName; nullopt for unknown strings.
std::optional<PrefetchSources> parsePrefetchSources(const std::string &S);

/// One independent unit of work: one workload on one machine under one
/// algorithm (plus optional pass tuning), tagged with the experiment
/// group it belongs to (e.g. "p4", "athlon", "ablation:c=4").
struct ExperimentCell {
  std::string Group;
  const workloads::WorkloadSpec *Spec = nullptr;
  workloads::RunOptions Opt;
  /// Index of a cell (typically this workload's BASELINE run) whose
  /// return value this cell's must equal; checked after the sweep.
  std::optional<unsigned> CheckAgainst;
  /// The prefetch-source facet this cell represents (addModeSweep cells
  /// only). When set, Opt.Algo and Opt.Machine.HwPrefetchEnabled are
  /// derived from it and the report carries prefetch_mode/hw_prefetch.
  PrefetchSources Mode = PrefetchSources::Unset;
};

/// Result of one cell, in plan order.
struct CellResult {
  workloads::RunResult Run;
  /// The cell produced a result. False when its group failed or was
  /// stopped before it ran (GovernorOptions::ExternalStop).
  bool Ran = false;
  /// The cell's execution ended in an exception (a real correctness
  /// problem).
  bool Failed = false;
  /// Always false: no cell has a wall-clock deadline (the instruction
  /// budget, a RuntimeTrap, is the only runaway guard). Kept because the
  /// benchmark harness still reads it.
  bool TimedOut = false;
  /// what() of the exception that ended the execution, or why the cell
  /// never ran.
  std::string Error;
};

/// One quarantined cell in the final report: a cell that produced no
/// result, kept out of the aggregates. Every quarantined cell is also a
/// Failure.
struct QuarantineRecord {
  unsigned CellIndex = 0;
  std::string Tag; ///< "workload [ALGO, machine]" as in Failures.
  std::string Error;
};

/// An ordered list of cells. Order is significant: it is the aggregation
/// and report order, and CheckAgainst indices refer into it.
class ExperimentPlan {
public:
  /// Appends one cell; returns its index.
  unsigned add(ExperimentCell Cell);

  /// Expands the classic sweep: for each machine, for each workload, for
  /// each algorithm — one cell. When \p CheckReturnValues is true and
  /// Algorithm::Baseline is part of \p Algos, every non-baseline cell is
  /// checked against its workload's baseline on the same machine.
  /// Returns the indices of the new cells in expansion order.
  std::vector<unsigned>
  addSweep(const std::vector<const workloads::WorkloadSpec *> &Specs,
           const std::vector<workloads::Algorithm> &Algos,
           const std::vector<sim::MachineConfig> &Machines,
           const workloads::WorkloadConfig &Config,
           const std::string &Group = "", bool CheckReturnValues = true);

  /// Expands a prefetch-source sweep: for each machine, for each
  /// workload, one cell per mode in \p Modes. Each cell's algorithm and
  /// hardware-prefetcher enable are derived from the mode (None =
  /// baseline compile + hw off, Combined = INTER+INTRA + hw on, ...);
  /// the machine's configured prefetcher *kind* is untouched. When
  /// \p CheckReturnValues is true and None is among the modes, every
  /// other cell is checked against its workload's None cell.
  std::vector<unsigned>
  addModeSweep(const std::vector<const workloads::WorkloadSpec *> &Specs,
               const std::vector<PrefetchSources> &Modes,
               const std::vector<sim::MachineConfig> &Machines,
               const workloads::WorkloadConfig &Config,
               const std::string &Group = "", bool CheckReturnValues = true);

  const std::vector<ExperimentCell> &cells() const { return Cells; }
  /// Mutable access, for callers that season already-planned cells with
  /// run options the add/addSweep helpers do not know about (epochs, GC
  /// variant, governor).
  std::vector<ExperimentCell> &cells() { return Cells; }
  size_t size() const { return Cells.size(); }
  bool empty() const { return Cells.empty(); }

private:
  std::vector<ExperimentCell> Cells;
};

/// The stop hook of one plan run.
struct GovernorOptions {
  /// Polled once per execution group, before the group runs (at Jobs=1
  /// always on the calling thread, partner set by partner set; see
  /// runPlan). Once it returns true, that group and every group polled
  /// after it stay un-run (!Ran) and their cells are Failures. Null =
  /// never stop. Perfbench runs its calibration kernel here between
  /// groups.
  std::function<bool()> ExternalStop;
};

/// Full configuration for one runPlan call.
struct RunPlanOptions {
  GovernorOptions Governor;
};

/// All cell results plus the driver's correctness verdicts.
struct ExperimentResult {
  std::vector<CellResult> Cells; ///< Parallel to the plan, plan order.
  /// Human-readable failure lines (self-check failures, baseline
  /// mismatches, cell errors and stopped cells), in plan order.
  std::vector<std::string> Failures;
  /// Cells that never produced a result, in plan order.
  std::vector<QuarantineRecord> Quarantine;

  bool ok() const { return Failures.empty(); }
  const workloads::RunResult &run(unsigned Index) const {
    return Cells[Index].Run;
  }
};

/// Runs every cell of \p Plan on \p Jobs workers (1 = fully serial, no
/// threads spawned) and returns results in plan order. Jobs of 0 means
/// defaultJobs().
///
/// Execution sharing: the cells of one workload, config, epochs and phase
/// change (a partner set) are one group, interpreted once
/// (workloads::runSharedExecution): each distinct configuration's
/// prefetch code joins one union program, and each cell's simulator sees
/// only its own. GC variants may differ within a set: the execution
/// splits by variant at each epoch boundary. The lowest plan index
/// leads; followers come back with Run.Replayed set. A member whose
/// governor acts, or whose prefetch pass throws, leaves the group and
/// runs again alone. Grouping and leaving depend on the plan alone, so
/// results — Replayed included — are independent of the worker count. On
/// Jobs > 1 workers each set, each branch it splits into and each leaver
/// is a task of its own, a leaver spawned as it leaves. At Jobs=1 sets
/// run in the plan order of their first cell, a set's branches epoch by
/// epoch in turn, and its leavers right after it.
///
/// Failure containment: a group that throws (a RuntimeTrap such as a
/// null dereference or the exhausted instruction budget, or any other
/// exception) leaves every member that stayed in it un-run, quarantined
/// and failed; the other groups run on.
ExperimentResult runPlan(const ExperimentPlan &Plan, unsigned Jobs = 0,
                         const RunPlanOptions &Opts = {});

/// Writes the machine-readable report for a finished plan: metadata plus
/// one record per cell with the simulator statistics the figures use.
/// Format documented in DESIGN.md ("JSON report").
void writeJsonReport(std::ostream &OS, const ExperimentPlan &Plan,
                     const ExperimentResult &Result, double Scale,
                     unsigned Jobs);

} // namespace harness
} // namespace spf

#endif // SPF_HARNESS_EXPERIMENT_H
