//===- workloads/Runner.h - Build, compile, simulate, measure ---*- C++ -*-===//
///
/// \file
/// The measurement harness shared by all benches and the end-to-end tests:
/// builds a workload, JIT-compiles its hot methods under one of the three
/// evaluated configurations (BASELINE, INTER, INTER+INTRA), executes it on
/// one or more simulated machines, and returns the cycle/miss/compile-time
/// metrics the paper's figures are drawn from.
///
/// Runs whose execution signatures are equal interpret the same program
/// over the same heap, so runWorkloadGroup executes such a group once and
/// fans the access-event stream out to one MemorySystem per member;
/// runWorkload is the group of one.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_WORKLOADS_RUNNER_H
#define SPF_WORKLOADS_RUNNER_H

#include "exec/Interpreter.h"
#include "jit/CompileManager.h"
#include "obs/DecisionLog.h"
#include "obs/Timeline.h"
#include "opt/Governor.h"
#include "sim/MemorySystem.h"
#include "workloads/Workload.h"

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
  /// Stable tag describing what TunePass does, so tuned runs can still be
  /// keyed by execution signature. A run with a TunePass but no TuneKey
  /// has no signature (executionSignature returns "") and never shares
  /// its execution.
  std::string TuneKey;
  /// Wall-clock watchdog for the simulated execution, in seconds; the run
  /// throws support::CellTimeout when exceeded. 0 disables it.
  double TimeoutSeconds = 0.0;

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
  /// re-decides each site at every epoch boundary. Governor-on runs never
  /// share their execution (executionSignature returns "").
  bool Governor = false;
  opt::GovernorConfig GovernorCfg;

  /// Timeline sampling cadence: snapshot the cycle attribution every N
  /// memory events (obs::TimelineSampler), plus one flagged sample per
  /// epoch boundary. 0 (the default) disables sampling entirely —
  /// RunResult::Timeline stays empty and the run is byte-identical to a
  /// pre-timeline run. Per member of a shared execution, and excluded
  /// from executionSignature: sampling observes the event stream, never
  /// shapes it.
  uint64_t TimelineEvery = 0;
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
  /// Attribution time series (RunOptions::TimelineEvery > 0 only; never
  /// empty then — the sampler always appends a final sample).
  std::vector<obs::TimelineSample> Timeline;
  exec::ExecStats Exec;
  double JitTotalUs = 0;    ///< Total JIT compilation time.
  double JitPrefetchUs = 0; ///< Prefetch pass share of it.
  core::PrefetchPassResult Prefetch;
  uint64_t ReturnValue = 0;
  bool SelfCheckOk = true; ///< Entry returned the expected value.
  /// Structured compile-decision events (obs/DecisionLog.h), recorded at
  /// JIT time when observability is enabled; empty otherwise. Carried
  /// with the result so `--explain` works for shared executions, through
  /// the journal, and across the worker record line.
  std::vector<obs::DecisionEvent> Decisions;

  // Execution-sharing accounting (wall clock, not simulated):
  /// Statistics from a shared execution: an earlier member of this run's
  /// group did the interpreting (see runWorkloadGroup).
  bool Replayed = false;
  /// Wall time of the interpretation, simulation of every member
  /// included (0 when Replayed).
  double InterpretUs = 0;

  // Epoch/governor accounting (all zero for classic single-epoch runs):
  unsigned Epochs = 1;          ///< Epochs actually executed.
  uint64_t GcCollections = 0;   ///< Collections (boundary + pressure).
  unsigned GovernorQuarantined = 0; ///< Sites quarantined at run end.
  unsigned GovernorRetunes = 0;     ///< Distance retunes applied.
  unsigned GovernorReinspections = 0; ///< Strip + re-JIT escalations.
};

/// Derives the prefetch pass options appropriate for \p M: the planner's
/// line size is the line of the level software prefetches fill, and
/// guarded loads are used for the intra path on machines whose prefetch
/// only fills the L2 (the Pentium 4 setup of Section 4).
core::PrefetchPassOptions passOptionsFor(const sim::MachineConfig &M,
                                         core::PrefetchMode Mode);

/// Builds and compiles \p Spec once under the execution options of
/// \p Members[0], interprets it once, and simulates the event stream on
/// one MemorySystem per member (behind that member's TimelineSampler
/// when its TimelineEvery is set). Returns one result per member, in
/// order; each equals runWorkload(Spec, Members[K]) in every simulated
/// statistic. Members after the first come back with Replayed set.
/// Precondition: every member has Members[0]'s non-empty
/// executionSignature, or the group has exactly one member.
std::vector<RunResult> runWorkloadGroup(const WorkloadSpec &Spec,
                                        std::span<const RunOptions> Members);

/// Builds, compiles, and runs \p Spec under \p Opts: the group of one.
RunResult runWorkload(const WorkloadSpec &Spec, const RunOptions &Opts);

/// The *execution signature* of a run: everything its access-event
/// stream depends on. Two runs with equal signatures interpret the same
/// program over the same heap and emit bit-identical event streams, so
/// one execution serves both (runWorkloadGroup). The signature deliberately includes
/// only the compile-relevant machine facets — PlannerOptions::LineBytes
/// and the prefetch-fill level (as GuardedIntraPrefetch) — because those
/// are all the planner reads from the machine; cache sizes, latencies,
/// and DTLB geometry shape timing, never the address stream. BASELINE
/// runs never invoke the planner, so their signature has no machine
/// facet at all and one baseline execution serves every machine.
/// Returns "" for runs that cannot be keyed (TunePass without TuneKey).
/// TimelineEvery never enters the signature: sampling is a pure
/// observer of the stream the signature describes.
std::string executionSignature(const WorkloadSpec &Spec,
                               const RunOptions &Opts);

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
