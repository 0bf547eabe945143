//===- workloads/Runner.cpp -----------------------------------------------===//

#include "workloads/Runner.h"

#include "core/PrefetchCodeGen.h"
#include "ir/IRPrinter.h"
#include "obs/Obs.h"
#include "obs/Tracer.h"
#include "opt/Governor.h"
#include "workloads/ProgramPopulation.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <optional>

using namespace spf;
using namespace spf::workloads;

namespace {

double elapsedUs(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

/// Forwards every event to each distinct machine's MemorySystem, in
/// first-member order: the fan-out of one shared execution. Every machine
/// sees exactly the stream a solo run would have given it (AccessSink's
/// write-only contract). MemorySystem is final, so each forward is a
/// direct call.
class FanOutSink final : public exec::AccessSink {
public:
  explicit FanOutSink(std::vector<sim::MemorySystem *> Sims)
      : Sims(std::move(Sims)) {}

  void tick(uint64_t N) override {
    for (sim::MemorySystem *S : Sims)
      S->tick(N);
  }
  void load(uint64_t Addr, exec::SiteId Site) override {
    for (sim::MemorySystem *S : Sims)
      S->load(Addr, Site);
  }
  void store(uint64_t Addr) override {
    for (sim::MemorySystem *S : Sims)
      S->store(Addr);
  }
  void prefetch(uint64_t Addr, exec::SiteId Site) override {
    for (sim::MemorySystem *S : Sims)
      S->prefetch(Addr, Site);
  }
  void guardedLoad(uint64_t Addr, exec::SiteId Site) override {
    for (sim::MemorySystem *S : Sims)
      S->guardedLoad(Addr, Site);
  }
  void guardedLoadFault(exec::SiteId Site) override {
    for (sim::MemorySystem *S : Sims)
      S->guardedLoadFault(Site);
  }

private:
  std::vector<sim::MemorySystem *> Sims;
};

/// JIT-compiles the executed units of \p W with their first-invocation
/// arguments, recording decisions into \p Log when it is non-null and
/// observability is on.
void compileUnits(jit::CompileManager &Jit, const BuiltWorkload &W,
                  obs::DecisionLog *Log) {
  std::optional<obs::DecisionScope> Scope;
  if (Log && obs::enabled())
    Scope.emplace(*Log);
  obs::Span JitSpan("jit", "runner");
  for (const CompileUnit &CU : W.executedUnits())
    Jit.compile(CU.M, CU.Args);
}

/// The mutable state of a world: its heap and every handle into it that
/// outlives an epoch. The IR is not part of it: ungoverned runs never
/// write it, so every copy of a world shares it.
struct WorldState {
  std::unique_ptr<vm::Heap> Heap;
  std::vector<vm::Addr> Roots;
  std::vector<uint64_t> EntryArgs;
  std::vector<CompileUnit> Units;

  WorldState clone() const { return {Heap->clone(), Roots, EntryArgs, Units}; }

  /// True when \p Other behaves alike in every later epoch.
  bool sameState(const WorldState &Other) const {
    return Roots == Other.Roots && EntryArgs == Other.EntryArgs &&
           Units == Other.Units && Heap->sameState(*Other.Heap);
  }

  /// The ref-typed argument slots, which every collection must root
  /// after Roots: entry args are re-run every epoch, and compile-unit
  /// args feed governor re-inspection; both must track moved referents.
  std::vector<vm::Addr *> argSlots(ir::Method *Entry) {
    std::vector<vm::Addr *> Slots;
    auto AddRefArgs = [&Slots](ir::Method *M, std::vector<uint64_t> &Args) {
      size_t N = std::min<size_t>(M->numArgs(), Args.size());
      for (unsigned I = 0; I != N; ++I)
        if (M->arg(I)->type() == ir::Type::Ref)
          Slots.push_back(&Args[I]);
    };
    AddRefArgs(Entry, EntryArgs);
    for (CompileUnit &CU : Units)
      AddRefArgs(CU.M, CU.Args);
    return Slots;
  }

  /// The epoch-boundary collection under \p Gc.
  void collect(vm::GarbageCollector &Gc, ir::Method *Entry) {
    std::vector<vm::Addr *> Slots;
    for (vm::Addr &Handle : Roots)
      Slots.push_back(&Handle);
    for (vm::Addr *Slot : argSlots(Entry))
      Slots.push_back(Slot);
    Gc.collect(*Heap, Slots);
  }
};

/// One line of execution of a group: a world state, the members whose
/// results it produces, one MemorySystem per distinct machine among them
/// and the interpreter that drives those.
struct Branch {
  WorldState World;
  std::vector<size_t> Members; ///< Indices into the group's members.
  std::vector<std::unique_ptr<sim::MemorySystem>> Sims;
  std::optional<FanOutSink> FanOut;
  std::unique_ptr<exec::Interpreter> Interp;

  sim::MemorySystem *simFor(const sim::MachineConfig &M) const {
    for (const std::unique_ptr<sim::MemorySystem> &S : Sims)
      if (S->config() == M)
        return S.get();
    return nullptr;
  }

  /// Starts a fresh interpreter over this branch's world and machines: a
  /// single machine is driven directly, several through a fan-out. It
  /// runs in governor mode when any member of \p Group is governed, and
  /// continues \p From's execution when given. Pressure collections use
  /// the first member's variant and root what the epoch boundary roots.
  void start(std::span<const RunOptions> Group, ir::Method *Entry,
             const exec::Interpreter *From) {
    exec::AccessSink *Sink = Sims.front().get();
    FanOut.reset();
    if (Sims.size() > 1) {
      std::vector<sim::MemorySystem *> Ptrs;
      for (const std::unique_ptr<sim::MemorySystem> &S : Sims)
        Ptrs.push_back(S.get());
      Sink = &FanOut.emplace(std::move(Ptrs));
    }
    auto Next =
        std::make_unique<exec::Interpreter>(*World.Heap, *Sink, &World.Roots);
    Next->setRootSlots(World.argSlots(Entry));
    if (std::any_of(Group.begin(), Group.end(),
                    [](const RunOptions &O) { return O.Governor; }))
      Next->enablePrefetchGovernance();
    if (From)
      Next->continueFrom(*From);
    const RunOptions &Lead = Group[Members.front()];
    Next->gc().setVariant(Lead.GcVariant, Lead.Config.Seed);
    Interp = std::move(Next);
  }

  /// Drops the machines no member uses any more, after a member left;
  /// the interpreter then continues on the others.
  void dropIdleSims(std::span<const RunOptions> Group, ir::Method *Entry) {
    const size_t Had = Sims.size();
    std::erase_if(Sims, [&](const std::unique_ptr<sim::MemorySystem> &S) {
      return std::none_of(Members.begin(), Members.end(), [&](size_t K) {
        return Group[K].Machine == S->config();
      });
    });
    if (Sims.size() != Had) {
      std::unique_ptr<exec::Interpreter> Old = std::move(Interp);
      start(Group, Entry, Old.get());
    }
  }
};

/// The distinct GC variants of \p B's members, in member order.
std::vector<vm::GcVariant> variantsOf(const Branch &B,
                                      std::span<const RunOptions> Group) {
  std::vector<vm::GcVariant> Vs;
  for (size_t K : B.Members)
    if (std::find(Vs.begin(), Vs.end(), Group[K].GcVariant) == Vs.end())
      Vs.push_back(Group[K].GcVariant);
  return Vs;
}

/// The epoch boundary of \p Branches[I]: every machine pays the pause,
/// then the world is collected under each variant of the branch's members
/// (applying the phase change after each when \p Phase). The first
/// variant collects in place; every other one collects a copy taken
/// before. A result equal to an earlier one joins its branch; each
/// distinct one becomes a new branch at the end of \p Branches that
/// continues its parent's execution on its parent's machines (moved, or
/// copied when a sibling needs the same one). Returns the number of
/// MemorySystems copied.
size_t boundary(std::vector<std::unique_ptr<Branch>> &Branches, size_t I,
                std::span<const RunOptions> Group, ir::Method *Entry,
                bool Phase) {
  Branch &B = *Branches[I];
  const uint64_t Seed = Group[B.Members.front()].Config.Seed;
  for (const std::unique_ptr<sim::MemorySystem> &S : B.Sims)
    S->tick(exec::GcPauseTicks); // Same pause the interpreter charges.
  auto Collect = [&](WorldState &World, vm::GarbageCollector &Gc,
                     vm::GcVariant V) {
    Gc.setVariant(V, Seed);
    World.collect(Gc, Entry);
    if (Phase)
      applyPhaseChange(*World.Heap, Seed);
  };

  const std::vector<vm::GcVariant> Variants = variantsOf(B, Group);
  std::vector<WorldState> Copies;
  for (size_t V = 1; V != Variants.size(); ++V) {
    vm::GarbageCollector Gc = B.Interp->gc();
    Collect(Copies.emplace_back(B.World.clone()), Gc, Variants[V]);
  }
  Collect(B.World, B.Interp->gc(), Variants.front());
  if (Copies.empty())
    return 0;

  // Siblings: B itself, then each distinct copy in variant order.
  std::vector<Branch *> Siblings{&B};
  std::vector<size_t> SiblingOf{0}; // Variant index -> sibling index.
  for (WorldState &World : Copies) {
    size_t J = 0;
    while (J != Siblings.size() && !Siblings[J]->World.sameState(World))
      ++J;
    if (J == Siblings.size())
      Siblings.push_back(
          Branches.emplace_back(std::make_unique<Branch>(std::move(World)))
              .get());
    SiblingOf.push_back(J);
  }
  std::vector<size_t> Members = std::move(B.Members);
  B.Members.clear();
  for (size_t K : Members) {
    size_t V = std::find(Variants.begin(), Variants.end(),
                         Group[K].GcVariant) -
               Variants.begin();
    Siblings[SiblingOf[V]]->Members.push_back(K);
  }

  // B keeps the machines its remaining members use. Every other machine
  // moves to the first new sibling that needs it; later siblings get
  // copies, so no branch holds a machine none of its members use.
  std::vector<std::unique_ptr<sim::MemorySystem>> Spare = std::move(B.Sims);
  const size_t Had = Spare.size();
  size_t Copied = 0;
  for (Branch *C : Siblings)
    for (size_t K : C->Members) {
      const sim::MachineConfig &M = Group[K].Machine;
      if (C->simFor(M))
        continue;
      auto It = std::find_if(Spare.begin(), Spare.end(), [&M](const auto &S) {
        return S && S->config() == M;
      });
      if (It != Spare.end()) {
        C->Sims.push_back(std::move(*It));
        continue;
      }
      for (Branch *From : Siblings)
        if (const sim::MemorySystem *S = From->simFor(M)) {
          C->Sims.push_back(std::make_unique<sim::MemorySystem>(*S));
          ++Copied;
          break;
        }
    }
  // New siblings continue B's execution; B restarts on fewer machines.
  for (size_t J = 1; J != Siblings.size(); ++J)
    Siblings[J]->start(Group, Entry, B.Interp.get());
  if (B.Sims.size() != Had) {
    std::unique_ptr<exec::Interpreter> Old = std::move(B.Interp);
    B.start(Group, Entry, Old.get());
  }
  return Copied;
}

/// \p Members run as one group per GC variant (first-member order): the
/// fallback when an allocation-pressure collection hit a shared branch.
std::vector<RunResult> runByVariant(const WorkloadSpec &Spec,
                                    std::span<const RunOptions> Members,
                                    std::vector<CompiledProgram> Compiled) {
  std::vector<RunResult> Results(Members.size());
  std::vector<bool> Done(Members.size());
  for (size_t K = 0; K != Members.size(); ++K) {
    if (Done[K])
      continue;
    std::vector<size_t> Part;
    std::vector<RunOptions> Opts;
    std::vector<CompiledProgram> Programs;
    for (size_t J = K; J != Members.size(); ++J)
      if (!Done[J] && Members[J].GcVariant == Members[K].GcVariant) {
        Done[J] = true;
        Part.push_back(J);
        Opts.push_back(Members[J]);
        if (!Compiled.empty())
          Programs.push_back(std::move(Compiled[J]));
      }
    std::vector<RunResult> Rs =
        runWorkloadGroup(Spec, Opts, std::move(Programs));
    for (size_t P = 0; P != Part.size(); ++P)
      Results[Part[P]] = std::move(Rs[P]);
  }
  return Results;
}

} // namespace

const char *workloads::algorithmName(Algorithm A) {
  switch (A) {
  case Algorithm::Baseline:
    return "BASELINE";
  case Algorithm::Inter:
    return "INTER";
  case Algorithm::InterIntra:
    return "INTER+INTRA";
  }
  return "?";
}

core::PrefetchPassOptions
workloads::passOptionsFor(const sim::MachineConfig &M,
                          core::PrefetchMode Mode) {
  core::PrefetchPassOptions Opts;
  Opts.Planner.Mode = Mode;
  Opts.Planner.ScheduleDistance = 1; // Fixed at one iteration (Section 4).
  // The relevant line is the one of the level software prefetches fill:
  // L2 on the Pentium 4 (128 B), L1 on the Athlon MP (64 B).
  Opts.Planner.LineBytes = M.swFillLineBytes();
  // "We used a load instruction guarded by a software exception check for
  //  intra-iteration stride prefetching on the Pentium 4 in order to fill
  //  a missing DTLB entry." Machines whose software prefetches do not
  //  fill the L1 (SwFillLevel > 0) take the guarded-load flavor.
  Opts.Planner.GuardedIntraPrefetch = M.SwFillLevel > 0;
  return Opts;
}

jit::CompileManager::Options
workloads::compileOptionsFor(const RunOptions &Opts) {
  jit::CompileManager::Options CM;
  CM.EnablePrefetch = Opts.Algo != Algorithm::Baseline;
  CM.Pass = passOptionsFor(Opts.Machine, Opts.Algo == Algorithm::Inter
                                             ? core::PrefetchMode::Inter
                                             : core::PrefetchMode::InterIntra);
  if (Opts.TunePass)
    Opts.TunePass(CM.Pass);
  return CM;
}

uint64_t workloads::programHash(const WorkloadSpec &Spec,
                                const WorkloadConfig &Config,
                                const BuiltWorkload &W) {
  // The world inputs and entry args seed the chain of method hashes.
  // Scale is hashed by bit pattern: any representable value keys exactly.
  uint64_t ScaleBits = 0;
  std::memcpy(&ScaleBits, &Config.Scale, sizeof(ScaleBits));
  std::string Inputs = Spec.Name;
  for (uint64_t V : {ScaleBits, Config.Seed, Config.HeapBytes,
                     uint64_t(W.EntryArgs.size())})
    Inputs.append(reinterpret_cast<const char *>(&V), sizeof(V));
  for (uint64_t V : W.EntryArgs)
    Inputs.append(reinterpret_cast<const char *>(&V), sizeof(V));
  uint64_t H = std::hash<std::string>{}(Inputs);
  for (const CompileUnit &CU : W.executedUnits())
    H = ir::hashMethod(CU.M, H);
  return H;
}

CompiledProgram workloads::compileProgram(const WorkloadSpec &Spec,
                                          const RunOptions &Opts) {
  obs::Span BuildSpan("build-workload", "runner");
  BuiltWorkload W = Spec.Build(Opts.Config);
  BuildSpan.end();
  jit::CompileManager Jit(*W.Heap, compileOptionsFor(Opts));
  obs::DecisionLog Log;
  compileUnits(Jit, W, &Log);

  CompiledProgram P;
  P.Hash = programHash(Spec, Opts.Config, W);
  P.Prefetch = Jit.aggregatePrefetch();
  // The log waits in memory until the cell's group runs: drop its
  // growth slack.
  P.Decisions = Log.take();
  P.Decisions.shrink_to_fit();
  return P;
}

CompileTime workloads::measureCompileTime(const WorkloadSpec &Spec,
                                          const RunOptions &Opts) {
  BuiltWorkload W = Spec.Build(Opts.Config);
  jit::CompileManager Jit(*W.Heap, compileOptionsFor(Opts));
  for (const CompileUnit &CU : W.CompileUnits)
    Jit.compile(CU.M, CU.Args);
  return {Jit.totalJitUs(), Jit.prefetchUs()};
}

SharedExecution
workloads::runSharedExecution(const WorkloadSpec &Spec,
                              std::span<const RunOptions> Members,
                              std::vector<CompiledProgram> Compiled) {
  assert(!Members.empty());
  assert(Compiled.empty() || Compiled.size() == Members.size());
  const RunOptions &Opts = Members.front();
  RunResult Result;

  obs::Span RunSpan("run-workload", "runner");
  RunSpan.note("workload", Spec.Name);
  RunSpan.note("algorithm", algorithmName(Opts.Algo));
  RunSpan.noteU64("members", Members.size());

  obs::Span BuildSpan("build-workload", "runner");
  BuiltWorkload W = Spec.Build(Opts.Config);
  BuildSpan.end();

  // JIT-compile under the leader's options: every member compiles to the
  // same program. The decision log records here, at compile time, unless
  // the members' own compiles already recorded theirs, and is detached
  // before the simulated (timed) execution below — observability never
  // runs inside the timed region.
  jit::CompileManager Jit(*W.Heap, compileOptionsFor(Opts));
  obs::DecisionLog Log;
  compileUnits(Jit, W, Compiled.empty() ? &Log : nullptr);
  const size_t Executed = W.executedUnits().size();

  // The first branch runs the built world for every member, on one
  // MemorySystem per distinct machine; a machine that a governed member
  // uses tracks prefetch health, the governor's evidence.
  std::vector<size_t> Everyone(Members.size());
  for (size_t K = 0; K != Members.size(); ++K)
    Everyone[K] = K;
  std::vector<std::unique_ptr<Branch>> Branches;
  Branch &First = *Branches.emplace_back(std::make_unique<Branch>(
      WorldState{std::move(W.Heap), std::move(W.Roots), W.EntryArgs,
                 std::move(W.CompileUnits)},
      std::move(Everyone)));
  for (const RunOptions &M : Members)
    if (!First.simFor(M.Machine))
      First.Sims.push_back(std::make_unique<sim::MemorySystem>(M.Machine));
  for (const RunOptions &M : Members)
    if (M.Governor)
      First.simFor(M.Machine)->enablePrefetchHealth();
  size_t SimsBuilt = First.Sims.size();
  First.start(Members, W.Entry, nullptr);
  if (Opts.TimeoutSeconds > 0.0)
    First.Interp->setDeadline(Opts.TimeoutSeconds);
  // One governor per governed member, recording into its own log.
  std::vector<opt::Governor> Govs(Members.size());
  std::vector<obs::DecisionLog> GovLogs(Members.size());
  SharedExecution Out;

  // An allocation-pressure collection inside a branch of several GC
  // variants ran under one of them only: the shared execution is void.
  auto PressureCollected = [&](const Branch &B) {
    return B.Interp->stats().GcRuns && variantsOf(B, Members).size() > 1;
  };
  size_t EpochRuns = 0;
  unsigned Epochs = Opts.Epochs ? Opts.Epochs : 1;

  obs::Span SimSpan("simulate", "runner");
  SimSpan.note("workload", Spec.Name);
  auto Start = std::chrono::steady_clock::now();
  Result.ReturnValue = First.Interp->run(W.Entry, First.World.EntryArgs);
  ++EpochRuns;
  bool Split = PressureCollected(First);
  for (unsigned E = 1; E < Epochs && !Split; ++E) {
    // -- Epoch boundary: a full GC under each member's placement variant.
    // Every branch collects once per variant among its members; results
    // that leave equal states stay (or become) one branch.
    const bool Phase = Opts.PhaseChange && E == (Epochs + 1) / 2;
    for (size_t I = 0, N = Branches.size(); I != N; ++I)
      SimsBuilt += boundary(Branches, I, Members, W.Entry, Phase);

    // Governor re-decisions run between epochs — outside the timed
    // interpretation, like everything else that records decisions. Each
    // event names its site, not the last loop the JIT compiled.
    for (size_t K = 0; K != Members.size(); ++K) {
      if (!Members[K].Governor)
        continue;
      auto BIt = std::find_if(Branches.begin(), Branches.end(),
                              [K](const std::unique_ptr<Branch> &B) {
                                return std::count(B->Members.begin(),
                                                  B->Members.end(), K);
                              });
      if (BIt == Branches.end())
        continue; // Left at an earlier boundary.
      Branch &B = **BIt;
      std::optional<obs::DecisionScope> Scope;
      if (obs::enabled())
        Scope.emplace(GovLogs[K]);
      GovLogs[K].setContext("", 0);
      const sim::MemorySystem &Mem = *B.simFor(Members[K].Machine);
      opt::EpochVerdict V = Govs[K].endEpoch(Mem.siteStats());
      if (V.Quarantined.empty() && !V.Reinspect)
        continue;
      if (Members.size() > 1) {
        // Acting would change what the other members execute: the
        // member leaves and re-runs alone.
        Out.Left.push_back(K);
        std::erase(B.Members, K);
        if (B.Members.empty())
          Branches.erase(BIt);
        else
          B.dropIdleSims(Members, W.Entry);
      } else if (V.Reinspect) {
        // Strip every unit's prefetch code and re-run the pipeline
        // against the *current* (post-GC) heap layout; every quarantine,
        // this epoch's included, is void with the code it suppressed.
        for (const CompileUnit &CU :
             std::span(B.World.Units).first(Executed)) {
          core::CodeGenStats Stripped = core::stripPrefetchCode(*CU.M);
          if (Stripped.Prefetches || Stripped.SpecLoads)
            Jit.compile(CU.M, CU.Args);
        }
        B.Interp->clearPrefetchSuppression();
        B.Interp->invalidateMethodInfo();
        Govs[K].noteReinspected(Mem.siteStats());
      } else {
        for (exec::SiteId Site : V.Quarantined)
          B.Interp->suppressPrefetchSite(Site);
      }
    }
    for (const std::unique_ptr<Branch> &B : Branches) {
      B->Interp->run(W.Entry, B->World.EntryArgs);
      ++EpochRuns;
      if ((Split = PressureCollected(*B)))
        break;
    }
  }
  Result.InterpretUs = elapsedUs(Start);
  SimSpan.end();
  RunSpan.noteU64("simulators", SimsBuilt);
  RunSpan.noteU64("epoch_runs", EpochRuns);
  if (Split)
    return {runByVariant(Spec, Members, std::move(Compiled)), {}};

  Result.Prefetch = Jit.aggregatePrefetch();
  Result.Decisions = Log.take();
  Result.Epochs = Epochs;
  // Self-check uses epoch 0's return value (captured above): later
  // epochs legitimately diverge once the phase change reorders data.
  if (W.Expected)
    Result.SelfCheckOk = Result.ReturnValue == *W.Expected;

  // One result per member: its branch's execution plus its own machine's
  // statistics. The first member that stayed reports the interpretation.
  size_t Lead = 0;
  while (std::count(Out.Left.begin(), Out.Left.end(), Lead))
    ++Lead;
  Out.Results.resize(Members.size());
  for (const std::unique_ptr<Branch> &B : Branches)
    for (size_t K : B->Members) {
      const sim::MemorySystem &S = *B->simFor(Members[K].Machine);
      RunResult &R = Out.Results[K] = Result;
      if (K != Lead) {
        R.Replayed = true;
        R.InterpretUs = 0;
      }
      R.Retired = B->Interp->stats().Retired;
      R.Exec = B->Interp->stats();
      R.GcCollections = B->Interp->gc().collectionCount();
      R.CompiledCycles = S.cycles();
      R.Mem = S.stats();
      R.Acct = S.acct();
      R.Sites = S.siteStats();
      if (!Members[K].Governor)
        sim::clearPrefetchHealth(R.Mem, R.Sites);
      if (!Compiled.empty()) {
        CompiledProgram &P = Compiled[K];
        // A group of one compiled under its own options, and its re-JIT
        // adds to that compile: the aggregate above is already its own.
        if (Members.size() > 1)
          R.Prefetch = std::move(P.Prefetch);
        R.Decisions = std::move(P.Decisions);
      }
      std::vector<obs::DecisionEvent> GovEvents = GovLogs[K].take();
      R.Decisions.insert(R.Decisions.end(),
                         std::make_move_iterator(GovEvents.begin()),
                         std::make_move_iterator(GovEvents.end()));
      R.GovernorQuarantined = Govs[K].quarantinedSites();
      R.GovernorReinspections = Govs[K].reinspections();
    }
  return Out;
}

std::vector<RunResult>
workloads::runWorkloadGroup(const WorkloadSpec &Spec,
                            std::span<const RunOptions> Members,
                            std::vector<CompiledProgram> Compiled) {
  SharedExecution Run = runSharedExecution(Spec, Members, std::move(Compiled));
  for (size_t K : Run.Left)
    Run.Results[K] = runWorkload(Spec, Members[K]);
  return std::move(Run.Results);
}

RunResult workloads::runWorkload(const WorkloadSpec &Spec,
                                 const RunOptions &Opts) {
  return std::move(runSharedExecution(Spec, {&Opts, 1}).Results.front());
}

double workloads::totalTime(uint64_t CompiledCycles,
                            uint64_t BaselineCompiledCycles, double F) {
  // Uncompiled (interpreter/runtime) time is unaffected by prefetching and
  // is sized so the baseline's compiled share matches Table 3.
  double Uncompiled =
      static_cast<double>(BaselineCompiledCycles) * (1.0 - F) / F;
  return static_cast<double>(CompiledCycles) + Uncompiled;
}

double workloads::speedupPercent(const RunResult &Base, const RunResult &Opt,
                                 double F) {
  double TBase = totalTime(Base.CompiledCycles, Base.CompiledCycles, F);
  double TOpt = totalTime(Opt.CompiledCycles, Base.CompiledCycles, F);
  return (TBase / TOpt - 1.0) * 100.0;
}
