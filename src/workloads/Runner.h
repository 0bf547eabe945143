//===- workloads/Runner.h - Build, compile, simulate, measure ---*- C++ -*-===//
///
/// \file
/// The measurement harness shared by all benches and the end-to-end tests:
/// builds a workload, JIT-compiles its hot methods under one of the three
/// evaluated configurations (BASELINE, INTER, INTER+INTRA), executes it on
/// one or more simulated machines, and returns the cycle and miss metrics
/// the paper's figures are drawn from (measureCompileTime: Figure 11's).
///
/// Runs of one world share one execution (runSharedExecution): the
/// world is built once, the prefetch pass runs once per configuration and
/// its code joins one union program, each instruction owned by the
/// members that inserted it. One interpretation then drives one
/// MemorySystem per distinct (machine, owner) pair. Members of different
/// GC variants share each epoch until their heaps differ; governed
/// members share until their governor acts. runWorkload is the group of
/// one.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_WORKLOADS_RUNNER_H
#define SPF_WORKLOADS_RUNNER_H

#include "exec/Interpreter.h"
#include "jit/CompileManager.h"
#include "obs/DecisionLog.h"
#include "sim/MemorySystem.h"
#include "workloads/Workload.h"

#include <deque>
#include <exception>
#include <functional>
#include <span>

namespace spf {
namespace workloads {

/// The three configurations of Section 4.
enum class Algorithm : uint8_t {
  Baseline,   ///< No stride prefetching.
  Inter,      ///< INTER: inter-iteration stride prefetching only.
  InterIntra, ///< INTER+INTRA: the paper's full algorithm.
};

const char *algorithmName(Algorithm A);

/// One run = one workload on one machine under one algorithm.
struct RunOptions {
  sim::MachineConfig Machine = sim::MachineConfig::pentium4();
  Algorithm Algo = Algorithm::Baseline;
  WorkloadConfig Config;
  /// Optional hook to adjust the derived pass options (ablation studies:
  /// scheduling distance, guarded loads, inspection iterations, ...).
  std::function<void(core::PrefetchPassOptions &)> TunePass;

  // -- Epochs, GC perturbation, and the prefetch-health governor -----------

  /// Number of epochs: the entry method runs once per epoch, with a full
  /// collection at every epoch boundary. 1 (the default) is the classic
  /// single-shot run — no boundary GC, byte-identical to the pre-epoch
  /// runner.
  unsigned Epochs = 1;
  /// Placement policy of every collection in the run (boundary GCs and
  /// allocation-pressure GCs alike). Non-default variants perturb object
  /// order, going stale the inspection-derived stride plans.
  vm::GcVariant GcVariant = vm::GcVariant::SlidingCompact;
  /// Workload phase change: at the midpoint epoch boundary, every
  /// reference array on the heap has its element order shuffled
  /// (workloads::applyPhaseChange), so later epochs visit the same
  /// objects in a different order.
  bool PhaseChange = false;
  /// Online prefetch-health governor: per-site effectiveness tracking is
  /// enabled (sim::MemorySystem::enablePrefetchHealth) and opt::Governor
  /// re-decides each site at every epoch boundary. A governed run shares
  /// its group's execution until its governor first acts, then re-runs
  /// alone (runSharedExecution).
  bool Governor = false;
};

/// Everything measured in one run.
struct RunResult {
  uint64_t CompiledCycles = 0; ///< Simulated cycles in compiled code.
  uint64_t Retired = 0;        ///< Retired instructions.
  sim::MemoryStats Mem;
  /// Exact cycle attribution; Acct.total() == CompiledCycles always.
  sim::CycleAccounting Acct;
  /// Per-load-site attribution (index = exec::SiteId).
  std::vector<sim::SiteStats> Sites;
  exec::ExecStats Exec;
  core::PrefetchPassResult Prefetch;
  uint64_t ReturnValue = 0;
  bool SelfCheckOk = true; ///< Entry returned the expected value.
  /// Structured compile-decision events (obs/DecisionLog.h), recorded at
  /// JIT time when observability is enabled; empty otherwise. Carried
  /// with the result so `--explain` works for shared executions.
  std::vector<obs::DecisionEvent> Decisions;

  // Execution-sharing accounting (wall clock, not simulated):
  /// Statistics from a shared execution: another member of this run's
  /// group did the interpreting (see runSharedExecution).
  bool Replayed = false;
  /// Wall time of the interpretation, the simulation on every simulator
  /// of the group included (0 when Replayed).
  double InterpretUs = 0;

  // Epoch/governor accounting (all zero for classic single-epoch runs):
  unsigned Epochs = 1;          ///< Epochs actually executed.
  uint64_t GcCollections = 0;   ///< Collections (boundary + pressure).
  unsigned GovernorQuarantined = 0; ///< Sites quarantined at run end.
  unsigned GovernorReinspections = 0; ///< Strip + re-JIT escalations.
};

/// Derives the prefetch pass options appropriate for \p M: the planner's
/// line size is the line of the level software prefetches fill, and
/// guarded loads are used for the intra path on machines whose prefetch
/// only fills the L2 (the Pentium 4 setup of Section 4).
core::PrefetchPassOptions passOptionsFor(const sim::MachineConfig &M,
                                         core::PrefetchMode Mode);

/// The JIT options a run compiles with: passOptionsFor its machine and
/// algorithm, adjusted by its TunePass.
jit::CompileManager::Options compileOptionsFor(const RunOptions &Opts);

/// Wall-clock JIT time of a whole program, in microseconds.
struct CompileTime {
  double TotalUs = 0;    ///< Every pipeline stage of every method.
  double PrefetchUs = 0; ///< The prefetch pass's share of TotalUs.
};

/// Builds \p Spec and compiles every unit, the compile-only population
/// included, under compileOptionsFor(\p Opts): Figure 11's measurement.
CompileTime measureCompileTime(const WorkloadSpec &Spec,
                               const RunOptions &Opts);

/// A partner set's world, built once and compiled once for all its
/// members into one union program: the BASELINE program plus the
/// prefetch code of every owner, each instruction tagged with its owner
/// (ir::AddressedInst::owner). The conventional pipeline runs once per
/// executed unit and the prefetch pass once per distinct compile
/// configuration (compileOptionsFor), each on exactly the IR its solo
/// compile would see, over the same heap and args. Configurations whose
/// code is equal (core::samePrefetchCode) share one owner; one that
/// inserts nothing has owner 0, BASELINE's. Members must share their
/// WorkloadConfig.
struct SharedWorld {
  BuiltWorkload W;
  unsigned Owners = 1; ///< Owner count, owner 0 included.
  /// Each member's owner; owners from 1 on are numbered in first-member
  /// order.
  std::vector<unsigned> OwnerOf;
  /// Each member's configuration, which indexes the vectors below.
  std::vector<size_t> ConfigOf;
  /// Per configuration: the compile manager its pass results aggregate
  /// in, its decisions (when observability is on), and what its pass
  /// threw, if it threw (its code then joins no owner).
  std::deque<jit::CompileManager> Jits;
  std::vector<std::vector<obs::DecisionEvent>> Decisions;
  std::vector<std::exception_ptr> Failed;
};

SharedWorld buildSharedWorld(const WorkloadSpec &Spec,
                             std::span<const RunOptions> Members);

/// The work a shared execution may hand to other threads. Empty:
/// everything runs on the calling thread, branch after branch per epoch.
struct ExecutionTasks {
  /// Runs a task on some worker. Given, a branch that splits off at an
  /// epoch boundary is offered to a worker at once, and carries on there
  /// to its last epoch; the calling thread runs what no worker took.
  std::function<void(std::function<void()>)> Spawn;
  /// Told of each member that leaves the execution, as it leaves, on the
  /// thread that runs its branch (SharedExecution::Left lists it too).
  std::function<void(size_t)> OnLeave;
};

/// A group's shared execution, without the solo re-runs it may owe.
struct SharedExecution {
  /// One result per member, in order; empty for the members in Left.
  std::vector<RunResult> Results;
  /// Members that left the execution, in member order: a governed member
  /// whose governor acted while the group had more than one member left
  /// at that epoch boundary, and a member whose prefetch pass threw never
  /// joined. Each must re-run alone (runWorkload).
  std::vector<size_t> Left;
};

/// Builds \p Spec once (buildSharedWorld), interprets its union program
/// once and simulates the event stream on one MemorySystem per distinct
/// (machine, owner) pair (MachineConfig::operator==, in first-member
/// order; a single one is driven directly, without a fan-out). Demand
/// events and ticks reach every simulator; an owner's prefetch events
/// reach its own. Returns one result per member with its simulator's
/// statistics and its own compile's pass results and decisions; each
/// equals runWorkload(Spec, Members[K]) in every field but Replayed and
/// InterpretUs. The first member that did not leave carries the
/// interpretation time; every other one comes back with Replayed set.
///
/// Members may differ in GcVariant. The execution then keeps one branch
/// per distinct post-collection state: at every epoch boundary a branch
/// collects once per variant among its members (in place, or on a
/// clone of its world), and results with equal states stay one branch.
/// A new branch continues its parent's execution on its parent's
/// simulators, copied when another branch needs one too, and runs as
/// a task of its own when \p Tasks can spawn one. If an
/// allocation-pressure collection hits a branch of several variants, the
/// members that stayed re-run as one group per variant.
///
/// Members may be governed: the group then interprets in governor mode,
/// a governed member's simulator tracks prefetch health (ungoverned
/// results drop those counters, sim::clearPrefetchHealth), and each
/// governed member runs its own opt::Governor over its branch's
/// simulator. A group of one applies the verdicts in place; in a larger
/// group the first non-empty verdict, which would change code the others
/// share, makes the member leave (SharedExecution::Left). A group of one
/// reports its compile's pass result with a re-inspection's re-JIT
/// added. Precondition: the members share their Epochs and PhaseChange.
SharedExecution runSharedExecution(const WorkloadSpec &Spec,
                                   std::span<const RunOptions> Members,
                                   const ExecutionTasks &Tasks = {});

/// runSharedExecution, then each member that left re-runs alone, in
/// member order: one result per member, each equal to its runWorkload.
std::vector<RunResult> runWorkloadGroup(const WorkloadSpec &Spec,
                                        std::span<const RunOptions> Members);

/// Builds, compiles, and runs \p Spec under \p Opts: the group of one.
RunResult runWorkload(const WorkloadSpec &Spec, const RunOptions &Opts);

/// Mixed-mode total-time model: compiled cycles plus the (configuration-
/// independent) uncompiled time derived from the baseline run and the
/// workload's Table 3 compiled-code fraction \p F.
double totalTime(uint64_t CompiledCycles, uint64_t BaselineCompiledCycles,
                 double F);

/// Speedup percentage of \p Opt over \p Base under the total-time model.
double speedupPercent(const RunResult &Base, const RunResult &Opt, double F);

/// Misses (or any event count) per retired instruction.
inline double perInstruction(uint64_t Events, uint64_t Retired) {
  return Retired ? static_cast<double>(Events) /
                       static_cast<double>(Retired)
                 : 0.0;
}

} // namespace workloads
} // namespace spf

#endif // SPF_WORKLOADS_RUNNER_H
