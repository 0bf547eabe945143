//===- harness/Experiment.h - Parallel experiment driver --------*- C++ -*-===//
///
/// \file
/// The experiment layer behind every figure/ablation binary: a sweep
/// (workloads x algorithms x machine configs x scale) expands into
/// independent cells. Cells with equal execution signatures (BASELINE on
/// two machines, say) form one group that interprets once and feeds one
/// MemorySystem per cell (workloads::runWorkloadGroup); every group owns
/// a private Heap / Interpreter. Groups run concurrently on a fixed-size
/// ThreadPool and results are aggregated deterministically in plan
/// order, so they are bit-identical to a serial run regardless of the
/// worker count (see tests/harness_test.cpp).
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
  /// The cell produced a result. False when the cell was never executed
  /// or every attempt failed (see Failed/TimedOut/Transient).
  bool Ran = false;
  /// The cell's last attempt ended in an exception that is not an
  /// injected transient fault (a real correctness problem).
  bool Failed = false;
  /// The cell hit its wall-clock deadline (SPF_CELL_TIMEOUT).
  bool TimedOut = false;
  /// Every attempt ended in an injected transient fault (chaos testing);
  /// expected under fault injection, so not a Failure.
  bool Transient = false;
  /// Supervised mode only: the worker process died without delivering a
  /// result (fatal signal, nonzero exit, rlimit kill). Contained, so not
  /// a Failure — the crash is quarantined with Signal/ExitStatus below.
  bool Crashed = false;
  /// Supervised mode only: the worker blew past the supervisor's hard
  /// wall-clock deadline and was SIGKILLed. Unlike a cooperative timeout
  /// this means even the watchdog never ran — treated as a Failure.
  bool DeadlineKilled = false;
  /// The cell was never admitted (or its worker was reaped early)
  /// because the sweep was interrupted — a shutdown signal, the global
  /// sweep deadline, or an external stop. Not a Failure: the cell is not
  /// journaled, so --resume runs it.
  bool Skipped = false;
  /// Execution attempts made (>1 means transient faults were retried).
  unsigned Attempts = 0;
  /// Terminating signal of the last worker attempt (0 = none).
  int Signal = 0;
  /// Exit status of the last worker attempt (-1 = did not exit).
  int ExitStatus = -1;
  /// what() of the exception that ended the last attempt, if any.
  std::string Error;
  /// Streaming aggregation folded this cell (see StreamOptions): the
  /// heavy per-cell payloads (Run.Sites, Run.Decisions, per-loop
  /// reports) were reduced to the two values the report needs and freed.
  bool SitesFolded = false;
  uint64_t FoldedSiteCount = 0;  ///< Run.Sites.size() before folding.
  std::string FoldedSiteHash;    ///< siteStatsHash before folding.
  /// Top-K load sites by stall cycles, precomputed before streaming
  /// aggregation frees Run.Sites (timeline cells only — the report's
  /// top_sites key). (SiteId, stats) pairs, descending StallCycles.
  std::vector<std::pair<uint32_t, sim::SiteStats>> TopSites;
};

/// One quarantined cell in the final report: a cell that was retried,
/// timed out, or gave up — kept out of the aggregates either way.
struct QuarantineRecord {
  unsigned CellIndex = 0;
  std::string Tag;  ///< "workload [ALGO, machine]" as in Failures.
  /// "retried" | "faulted" | "timeout" | "error" | "crashed" |
  /// "skipped" (sweep interrupted before the cell could run).
  std::string Kind;
  unsigned Attempts = 0;
  int Signal = 0;      ///< Worker's terminating signal ("crashed" only).
  int ExitStatus = -1; ///< Worker's exit status ("crashed" only).
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

/// Out-of-process cell isolation. With Enabled, every cell attempt runs
/// in a freshly exec'd worker process (WorkerCommand builds its argv;
/// benches wire this to their own binary plus the hidden --run-cell
/// protocol — see harness/Supervisor.h) under hard rlimit caps. The
/// supervisor classifies worker deaths from the wait status, so crashes
/// and wedges are contained per cell instead of killing the sweep.
struct IsolateOptions {
  bool Enabled = false;
  /// RLIMIT_AS cap per worker, in MiB (0 = no cap). Benches default it
  /// from SPF_CELL_MEM_MB / --cell-mem-mb.
  uint64_t CellMemMb = 0;
  /// Builds the worker argv for one (cell, attempt). Required when
  /// Enabled; argv[0] is the binary to exec.
  std::function<std::vector<std::string>(unsigned Cell, unsigned Attempt)>
      WorkerCommand;
};

/// Durable run journal (crash-resumable sweeps). With a Path, every
/// finished cell is appended as one fsync'd JSON line; with Resume, a
/// prior journal for the same plan (hash-checked) is loaded first and
/// its cells are grafted instead of re-executed. See harness/Journal.h.
struct JournalOptions {
  std::string Path; ///< Empty = no journal.
  bool Resume = false;
};

/// Resource governance for one plan run: graceful shutdown and the
/// global sweep deadline. All stop sources funnel into one path — stop
/// admitting cells, give in-flight supervised workers a grace window
/// (SPF_SHUTDOWN_GRACE_S) then group-SIGKILL them, flush the journal,
/// and return a partial result marked Interrupted. Unfinished cells are
/// quarantined as "skipped" and never journaled, so a later --resume of
/// the same journal completes the sweep.
struct GovernorOptions {
  /// Honor the process-wide shutdown latch (support/Shutdown.h); the
  /// bench layer arms SIGTERM/SIGINT handlers in supervisor processes.
  bool Graceful = false;
  /// Wall-clock budget for the whole runPlan call, in seconds (0 =
  /// none). Benches wire --sweep-deadline / SPF_SWEEP_DEADLINE_S here.
  double SweepDeadlineSec = 0.0;
  /// Extra stop source, polled once per execution group and before
  /// every retry. Tests use it to interrupt deterministically after N
  /// groups; null = none.
  std::function<bool()> ExternalStop;
};

/// Streaming aggregation: keeps peak resident cells at O(jobs) instead
/// of O(plan). Cells are admitted through a bounded in-flight window and
/// retired strictly in plan order; at retirement a cell's full record is
/// optionally written to a JSONL stream, then its heavy payloads
/// (per-site stats, decision events) are folded into the scalars the
/// report needs and freed. The final JSON report is bit-identical to the
/// in-memory path (tests/stream_test.cpp pins this).
struct StreamOptions {
  bool Enabled = false;
  /// Optional JSONL destination ("--cells-out"): one journal-format line
  /// per cell, written at in-order retirement. Empty = fold only.
  std::string CellsOutPath;
};

/// Full configuration for one runPlan call.
struct RunPlanOptions {
  IsolateOptions Isolate;
  JournalOptions Journal;
  GovernorOptions Governor;
  StreamOptions Stream;
};

/// All cell results plus the driver's correctness verdicts.
struct ExperimentResult {
  std::vector<CellResult> Cells; ///< Parallel to the plan, plan order.
  /// Human-readable failure lines (self-check failures, baseline
  /// mismatches, timeouts, and non-transient cell errors), in plan order.
  std::vector<std::string> Failures;
  /// Cells that needed retries or never produced a result, in plan
  /// order. Purely-transient quarantines (injected chaos) are not
  /// Failures; timeouts and real errors appear in both lists.
  std::vector<QuarantineRecord> Quarantine;

  /// Whether cells ran in supervised worker processes.
  bool Isolated = false;
  /// Journal bookkeeping: active path (empty = off), cells grafted from
  /// a resumed journal, cells appended by this run.
  std::string JournalPath;
  unsigned JournalGrafted = 0;
  unsigned JournalAppended = 0;
  /// Journal durability degradations (see RunJournal): records dropped
  /// after the append retry, and fsyncs that failed. Degraded journals
  /// are still resumable; dropped cells simply re-run.
  bool JournalDegraded = false;
  uint64_t JournalAppendFailures = 0;
  uint64_t JournalSyncFailures = 0;

  /// The run stopped early (signal, sweep deadline, or external stop).
  /// The result is a valid partial sweep: finished cells are real,
  /// unfinished ones are quarantined "skipped" and re-run on --resume.
  bool Interrupted = false;
  std::string InterruptReason; ///< e.g. "signal 15", "sweep deadline".
  unsigned CellsSkipped = 0;

  /// Streaming bookkeeping: records written to the --cells-out stream,
  /// and the high-water mark of completed-but-unretired + in-flight
  /// cells (O(jobs) when streaming, == plan size otherwise).
  uint64_t CellsStreamed = 0;
  uint64_t PeakResidentCells = 0;

  bool ok() const { return Failures.empty(); }
  const workloads::RunResult &run(unsigned Index) const {
    return Cells[Index].Run;
  }
};

/// Runs every cell of \p Plan on \p Jobs workers (1 = fully serial, no
/// threads spawned) and returns results in plan order. Jobs of 0 means
/// defaultJobs().
///
/// Execution sharing: cells with equal, non-empty execution signatures
/// form one group, interpreted once by workloads::runWorkloadGroup. The
/// lowest plan index leads; followers come back with Run.Replayed set.
/// Grouping depends on the plan alone, so results — Replayed included —
/// are independent of the worker count. Cells run alone when a fault
/// site that perturbs execution is armed (SPF_FAULTS), under isolation
/// or streaming, and when grafted from a resumed journal.
///
/// Failure containment: each group runs under a per-cell wall-clock
/// watchdog (SPF_CELL_TIMEOUT seconds; unset/0 = off) and, when
/// SPF_FAULTS is set, a per-(cell, attempt) seeded fault injector.
/// Injected transient faults are retried a bounded number of times;
/// cells that still fail are quarantined. Injector streams are derived
/// from plan index and attempt number, never from scheduling.
ExperimentResult runPlan(const ExperimentPlan &Plan, unsigned Jobs = 0);

/// The full-configuration overload: out-of-process isolation, the
/// durable journal, resource governance and streaming. Supervised
/// per-cell statistics are bit-identical to in-process runs for every
/// cell (the worker path mirrors the attempt semantics exactly; locked
/// by tests/isolate_test); a resumed journaled run reproduces the
/// uninterrupted run's normalized report byte-for-byte without
/// re-running completed cells.
ExperimentResult runPlan(const ExperimentPlan &Plan, unsigned Jobs,
                         const RunPlanOptions &Opts);

/// Writes the machine-readable report for a finished plan: metadata plus
/// one record per cell with the simulator statistics the figures use.
/// Format documented in DESIGN.md ("JSON report").
void writeJsonReport(std::ostream &OS, const ExperimentPlan &Plan,
                     const ExperimentResult &Result, double Scale,
                     unsigned Jobs);

} // namespace harness
} // namespace spf

#endif // SPF_HARNESS_EXPERIMENT_H
