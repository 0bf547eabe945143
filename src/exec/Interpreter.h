//===- exec/Interpreter.h - IR execution engine -----------------*- C++ -*-===//
///
/// \file
/// Executes compiled IR methods over the simulated heap, reporting every
/// memory operation to an abstract AccessSink. This stands in for the
/// JVM's compiled-code execution: the paper's measured quantities (cycles,
/// retired instructions, cache/DTLB miss events) all originate here — but
/// the interpreter itself knows nothing about timing. The usual sink is
/// sim::MemorySystem; a shared execution (workloads::runSharedExecution)
/// hands it the owner sinks of one sim::EventBuffer instead (the main
/// sink and one per owner of the union program's prefetch code,
/// setOwnerSinks), which delivers the events to several machines at
/// once, each seeing only its own members' prefetches.
///
/// The interpreter does not walk the IR. On a method's first execution it
/// decodes the method into a flat array of type-specialized ops over
/// register slots (constants pre-filled in a frame template, phis lowered
/// to per-edge parallel moves, branch targets as op indices) and runs
/// that. Decoding only reads the IR, so interpreters on several threads
/// can share one program. The decoded form is dropped whenever the IR may
/// have changed, which its owner announces with invalidateMethodInfo()
/// (the governor's re-JIT). Every method runs as compiled code: the
/// paper's invocation-time compile is modelled up front, by compiling each
/// executed method with its first-invocation arguments.
///
/// Demand loads are attributed to their static load site (exec::SiteId,
/// assigned in first-execution order); each load op caches its id after
/// the first execution, so a re-decoded method keeps its ids. Compute
/// ticks are summed and handed to the sink as one tick() just before the
/// next non-tick event and when run() returns — equivalent by tick()'s
/// additivity contract.
///
/// Allocation failures trigger the mark-compact collector with the active
/// frames' reference slots plus the caller-provided handles as roots.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_EXEC_INTERPRETER_H
#define SPF_EXEC_INTERPRETER_H

#include "exec/AccessSink.h"
#include "ir/Module.h"
#include "vm/GarbageCollector.h"

#include <cassert>
#include <memory>
#include <unordered_map>
#include <vector>

namespace spf {
namespace exec {

/// Nominal compute ticks charged per garbage collection pause — by the
/// interpreter's allocation-pressure collections and by the runner's
/// epoch-boundary collections alike. GC cost is not part of the paper's
/// metric (best-run steady-state timing), so it is small but nonzero;
/// the report layer uses the same constant to split the GC-pause share
/// out of the Compute cycle category.
constexpr uint64_t GcPauseTicks = 10000;

/// Execution statistics accumulated across calls.
struct ExecStats {
  /// Retired instructions (phis excluded; prefetches included, since the
  /// paper reports the retired-instruction increase they cause).
  uint64_t Retired = 0;
  /// Retired prefetch-related instructions (prefetch + spec_load).
  uint64_t PrefetchRelated = 0;
  uint64_t Calls = 0;
  uint64_t Allocations = 0;
  uint64_t GcRuns = 0;

  bool operator==(const ExecStats &) const = default;
};

/// Executes IR methods; one instance per simulated machine run.
class Interpreter {
public:
  /// \p ExternalRoots are mutator handles (workload data-structure roots)
  /// that the GC must trace and may update. \p Sink consumes the memory
  /// event stream (typically a sim::MemorySystem, or a sim::EventBuffer
  /// sink feeding several); the interpreter never reads it back.
  Interpreter(vm::Heap &Heap, AccessSink &Sink,
              std::vector<vm::Addr> *ExternalRoots = nullptr);
  ~Interpreter();

  /// Runs \p M with \p Args; returns the raw 64-bit result (0 for void).
  uint64_t run(ir::Method *M, const std::vector<uint64_t> &Args);

  /// Everything this interpreter executed, the code of every owner
  /// included.
  const ExecStats &stats() const { return Stats; }

  /// What a run with only owner \p Owner's prefetch code would have
  /// counted: the code every owner runs plus \p Owner's own.
  ExecStats statsFor(unsigned Owner) const;

  /// Routes a union program's prefetch code (ir::AddressedInst::owner):
  /// owner K's prefetch and guarded-load events go to \p Sinks[K]. A null
  /// or missing entry marks an owner this interpreter does not simulate:
  /// its code is left out when decoding, as if absent. Entry 0 is ignored:
  /// owner 0's code, demand events and ticks go to the interpreter's own
  /// sink, which must reach every sink of \p Sinks. Call before the first
  /// run. The execution budget counts every owner's code.
  void setOwnerSinks(std::vector<AccessSink *> Sinks);
  vm::GarbageCollector &gc() { return Gc; }

  /// Further slots every collection traces and updates after
  /// ExternalRoots: handles the caller keeps across runs, such as the
  /// ref-typed arguments it passes again in a later run. The slots must
  /// outlive the interpreter.
  void setRootSlots(std::vector<vm::Addr *> Slots) {
    RootSlots = std::move(Slots);
  }

  /// Distinct static load sites executed so far (dense SiteId space).
  unsigned loadSiteCount() const {
    return static_cast<unsigned>(LoadSites.size());
  }

  // -- Prefetch-health governance (opt::Governor) --------------------------

  /// Quarantines \p Site, an anchor load's site: its prefetches and spec
  /// loads execute as nops, modeling the JIT patching them out, at zero
  /// cost and with zero events; a suppressed spec load yields null.
  /// Prefetch and spec-load events carry their anchor load's SiteId (the
  /// sink's per-site health attribution); prefetch ops get no SiteId of
  /// their own, so site numbering stays that of the demand loads.
  void suppressPrefetchSite(SiteId Site) {
    if (Site >= Suppressed.size())
      Suppressed.resize(Site + 1);
    Suppressed[Site] = true;
  }
  /// Releases every site (after re-inspection rebuilds the prefetch code).
  void clearPrefetchSuppression() { Suppressed.clear(); }

  /// Drops every decoded method. Must be called after any out-of-band IR
  /// rewrite (governor-triggered re-JIT), between runs: the decoded ops
  /// are stale otherwise. Load sites keep their ids across the re-decode.
  void invalidateMethodInfo();

  /// Picks up where \p Other left off between runs, on this interpreter's
  /// own heap, sinks and roots (a copy of \p Other's world): its execution
  /// statistics (per owner too), load-site ids, collector (collection
  /// count and variant) and execution budget. Neither may have a site
  /// suppressed yet, and both must route as many owners.
  void continueFrom(const Interpreter &Other);

  /// Execution budget; exceeding it throws support::RuntimeTrap
  /// (runaway-loop protection).
  void setMaxInstructions(uint64_t Max) {
    MaxInstructions = Max;
    scheduleCheck();
  }

private:
  /// A method's decoded execution form and one of its ops (both defined
  /// in Interpreter.cpp).
  struct MethodInfo;
  struct Op;

  struct Frame {
    const MethodInfo *Info = nullptr;
    std::vector<uint64_t> Regs;
  };

  MethodInfo &infoFor(ir::Method *M);
  SiteId siteOf(const ir::Instruction *I);
  uint64_t execute(ir::Method *M, const std::vector<uint64_t> &Args);
  vm::Addr allocate(const Op &O, const uint64_t *Regs);
  void collectGarbage();
  /// Sets NextCheck to the first Retired count past the budget.
  void scheduleCheck();
  /// The budget check, run when Retired reaches NextCheck.
  void checkpoint();

  vm::Heap &Heap;
  AccessSink &Sink;
  std::vector<vm::Addr> *ExternalRoots;
  vm::GarbageCollector Gc;
  ExecStats Stats;
  uint64_t MaxInstructions = 4ull << 30;
  /// Retired count at which checkpoint() runs next.
  uint64_t NextCheck = 0;
  /// Compute ticks not yet handed to the sink. An executing frame keeps
  /// its running sum in a local and parks it here across calls,
  /// allocations and unwinds; run() flushes what is left.
  uint64_t PendingTicks = 0;
  std::unordered_map<ir::Method *, std::unique_ptr<MethodInfo>> Infos;
  /// Load-site attribution: instruction -> dense SiteId, assigned in
  /// first-execution order (deterministic for a deterministic program).
  /// Decoded ops cache their id; this map serves each op's first
  /// execution, including after a re-decode.
  std::unordered_map<const ir::Instruction *, SiteId> LoadSites;
  /// Sinks of the owners' prefetch code; entry 0 is Sink.
  std::vector<AccessSink *> OwnerSinks;
  /// The share of Stats each owner's code retired (entry 0: owner-0 code,
  /// which every owner runs).
  struct OwnedCounts {
    uint64_t Retired = 0;
    uint64_t PrefetchRelated = 0;
  };
  std::vector<OwnedCounts> Owned;
  std::vector<Frame *> ActiveFrames;
  unsigned CallDepth = 0;
  /// Quarantined anchor sites, indexed by SiteId.
  std::vector<bool> Suppressed;
  /// Roots after ExternalRoots (setRootSlots()).
  std::vector<vm::Addr *> RootSlots;
};

} // namespace exec
} // namespace spf

#endif // SPF_EXEC_INTERPRETER_H
