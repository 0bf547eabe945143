//===- workloads/Runner.cpp -----------------------------------------------===//

#include "workloads/Runner.h"

#include "core/PrefetchCodeGen.h"
#include "obs/Obs.h"
#include "obs/Tracer.h"
#include "opt/Governor.h"
#include "workloads/ProgramPopulation.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

using namespace spf;
using namespace spf::workloads;

namespace {

double elapsedUs(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

/// Forwards every event to each of its MemorySystems, in first-member
/// order: the fan-out of one shared execution to all its simulators, or
/// of one owner's prefetch code to that owner's. Every simulator sees
/// the stream a solo run would have given it (AccessSink's write-only
/// contract). MemorySystem is final, so each forward is a direct call.
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

/// The epoch steps of one shared execution, in FIFO order. The thread
/// that drains the queue runs steps, and so does every task the optional
/// spawner starts: each queued step spawns one task, which runs the first
/// waiting step, if one still waits. No step ever waits on another, so
/// lending steps to a fixed pool whose workers drain queues of their own
/// cannot deadlock.
class StepQueue {
public:
  using Spawner = std::function<void(std::function<void()>)>;
  explicit StepQueue(Spawner Spawn) : Spawn(std::move(Spawn)) {}

  void push(std::function<void()> Step) {
    {
      std::lock_guard<std::mutex> L(Q->Lock);
      Q->Waiting.push_back(std::move(Step));
    }
    Q->Changed.notify_all();
    if (Spawn)
      Spawn([Q = Q] { runNext(*Q); });
  }

  /// Runs steps until none waits or runs, then rethrows the first
  /// exception a step threw (the steps after it are dropped).
  void drain() {
    for (;;) {
      if (runNext(*Q))
        continue;
      std::unique_lock<std::mutex> L(Q->Lock);
      Q->Changed.wait(
          L, [this] { return !Q->Waiting.empty() || Q->Running == 0; });
      if (Q->Waiting.empty() && Q->Running == 0)
        break;
    }
    if (Q->Error)
      std::rethrow_exception(Q->Error);
  }

private:
  /// Outlives the queue: spawned tasks may run after the drain.
  struct State {
    std::mutex Lock;
    std::condition_variable Changed;
    std::deque<std::function<void()>> Waiting;
    unsigned Running = 0;
    std::exception_ptr Error;
  };

  static bool runNext(State &S) {
    std::function<void()> Step;
    bool Dropped;
    {
      std::lock_guard<std::mutex> L(S.Lock);
      if (S.Waiting.empty())
        return false;
      Step = std::move(S.Waiting.front());
      S.Waiting.pop_front();
      ++S.Running;
      Dropped = S.Error != nullptr;
    }
    std::exception_ptr E;
    if (!Dropped) {
      try {
        Step();
      } catch (...) {
        E = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> L(S.Lock);
      --S.Running;
      if (E && !S.Error)
        S.Error = E;
    }
    S.Changed.notify_all();
    return true;
  }

  Spawner Spawn;
  std::shared_ptr<State> Q = std::make_shared<State>();
};

/// The mutable state of a world: its heap and every handle into it that
/// outlives an epoch. The IR is not part of it: branches only read it,
/// so every copy of a world shares it.
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

/// What every branch of one shared execution reads: its members, their
/// owners in the union program and its entry method.
struct Group {
  std::span<const RunOptions> Members;
  const SharedWorld &World;
  ir::Method *Entry;
  bool Governed; ///< Some member is governed.

  /// The simulator key of member \p K: its machine and its owner.
  bool simulates(size_t K, const sim::MachineConfig &M, unsigned Owner) const {
    return Members[K].Machine == M && World.OwnerOf[K] == Owner;
  }
};

/// One simulator of a branch: a machine, fed one owner's prefetch code.
struct Sim {
  std::unique_ptr<sim::MemorySystem> Mem;
  unsigned Owner = 0;
};

/// One line of execution of a group: a world state, the members whose
/// results it produces, one simulator per distinct (machine, owner) pair
/// among them and the interpreter that drives those.
struct Branch {
  WorldState World;
  std::vector<size_t> Members; ///< Indices into the group's members.
  std::vector<Sim> Sims;
  std::deque<FanOutSink> FanOuts;
  std::unique_ptr<exec::Interpreter> Interp;

  sim::MemorySystem *simFor(const Group &G, size_t K) const {
    for (const Sim &S : Sims)
      if (G.simulates(K, S.Mem->config(), S.Owner))
        return S.Mem.get();
    return nullptr;
  }

  /// Starts a fresh interpreter over this branch's world and simulators.
  /// Demand events reach every simulator and each owner's prefetch code
  /// reaches that owner's: one simulator directly, several through a
  /// fan-out. It runs in governor mode when any member of the group is
  /// governed, and continues \p From's execution when given. Pressure
  /// collections use the first member's variant and root what the epoch
  /// boundary roots.
  void start(const Group &G, const exec::Interpreter *From) {
    FanOuts.clear();
    auto SinkOf = [this](std::vector<sim::MemorySystem *> Ms)
        -> exec::AccessSink * {
      if (Ms.size() < 2)
        return Ms.empty() ? nullptr : Ms.front();
      return &FanOuts.emplace_back(std::move(Ms));
    };
    std::vector<exec::AccessSink *> OwnerSinks(G.World.Owners);
    for (unsigned O = 1; O < G.World.Owners; ++O) {
      std::vector<sim::MemorySystem *> Ms;
      for (const Sim &S : Sims)
        if (S.Owner == O)
          Ms.push_back(S.Mem.get());
      OwnerSinks[O] = SinkOf(std::move(Ms));
    }
    std::vector<sim::MemorySystem *> All;
    for (const Sim &S : Sims)
      All.push_back(S.Mem.get());
    exec::AccessSink *Sink = SinkOf(std::move(All));

    auto Next =
        std::make_unique<exec::Interpreter>(*World.Heap, *Sink, &World.Roots);
    Next->setRootSlots(World.argSlots(G.Entry));
    Next->setOwnerSinks(std::move(OwnerSinks));
    if (G.Governed)
      Next->enablePrefetchGovernance();
    if (From)
      Next->continueFrom(*From);
    const RunOptions &Lead = G.Members[Members.front()];
    Next->gc().setVariant(Lead.GcVariant, Lead.Config.Seed);
    Interp = std::move(Next);
  }

  /// Drops the simulators no member uses any more, after a member left;
  /// the interpreter then continues on the others.
  void dropIdleSims(const Group &G) {
    const size_t Had = Sims.size();
    std::erase_if(Sims, [&](const Sim &S) {
      return std::none_of(Members.begin(), Members.end(), [&](size_t K) {
        return G.simulates(K, S.Mem->config(), S.Owner);
      });
    });
    if (Sims.size() != Had) {
      std::unique_ptr<exec::Interpreter> Old = std::move(Interp);
      start(G, Old.get());
    }
  }
};

/// The distinct GC variants of \p B's members, in member order.
std::vector<vm::GcVariant> variantsOf(const Branch &B, const Group &G) {
  std::vector<vm::GcVariant> Vs;
  for (size_t K : B.Members)
    if (std::find(Vs.begin(), Vs.end(), G.Members[K].GcVariant) == Vs.end())
      Vs.push_back(G.Members[K].GcVariant);
  return Vs;
}

/// The epoch boundary of \p B: every simulator pays the pause, then the
/// world is collected under each variant of the branch's members
/// (applying the phase change after each when \p Phase). The first
/// variant collects in place; every other one collects a copy taken
/// before. A result equal to an earlier one joins its branch; each
/// distinct one becomes a new branch, returned, that continues \p B's
/// execution on \p B's simulators (moved, or copied when a sibling needs
/// the same one). Adds the MemorySystems copied to \p Copied.
std::vector<std::unique_ptr<Branch>> boundary(Branch &B, const Group &G,
                                              bool Phase, size_t &Copied) {
  const uint64_t Seed = G.Members[B.Members.front()].Config.Seed;
  for (const Sim &S : B.Sims)
    S.Mem->tick(exec::GcPauseTicks); // Same pause the interpreter charges.
  auto Collect = [&](WorldState &World, vm::GarbageCollector &Gc,
                     vm::GcVariant V) {
    Gc.setVariant(V, Seed);
    World.collect(Gc, G.Entry);
    if (Phase)
      applyPhaseChange(*World.Heap, Seed);
  };

  const std::vector<vm::GcVariant> Variants = variantsOf(B, G);
  std::vector<WorldState> Copies;
  for (size_t V = 1; V != Variants.size(); ++V) {
    vm::GarbageCollector Gc = B.Interp->gc();
    Collect(Copies.emplace_back(B.World.clone()), Gc, Variants[V]);
  }
  Collect(B.World, B.Interp->gc(), Variants.front());
  std::vector<std::unique_ptr<Branch>> New;
  if (Copies.empty())
    return New;

  // Siblings: B itself, then each distinct copy in variant order.
  std::vector<Branch *> Siblings{&B};
  std::vector<size_t> SiblingOf{0}; // Variant index -> sibling index.
  for (WorldState &World : Copies) {
    size_t J = 0;
    while (J != Siblings.size() && !Siblings[J]->World.sameState(World))
      ++J;
    if (J == Siblings.size())
      Siblings.push_back(
          New.emplace_back(std::make_unique<Branch>(std::move(World))).get());
    SiblingOf.push_back(J);
  }
  std::vector<size_t> Members = std::move(B.Members);
  B.Members.clear();
  for (size_t K : Members) {
    size_t V = std::find(Variants.begin(), Variants.end(),
                         G.Members[K].GcVariant) -
               Variants.begin();
    Siblings[SiblingOf[V]]->Members.push_back(K);
  }

  // B keeps the simulators its remaining members use. Every other one
  // moves to the first new sibling that needs it; later siblings get
  // copies, so no branch holds a simulator none of its members use.
  std::vector<Sim> Spare = std::move(B.Sims);
  B.Sims.clear();
  const size_t Had = Spare.size();
  for (Branch *C : Siblings)
    for (size_t K : C->Members) {
      if (C->simFor(G, K))
        continue;
      auto It = std::find_if(Spare.begin(), Spare.end(), [&](const Sim &S) {
        return S.Mem && G.simulates(K, S.Mem->config(), S.Owner);
      });
      if (It != Spare.end()) {
        C->Sims.push_back(std::move(*It));
        continue;
      }
      for (Branch *From : Siblings)
        if (const sim::MemorySystem *S = From->simFor(G, K)) {
          C->Sims.push_back(
              {std::make_unique<sim::MemorySystem>(*S), G.World.OwnerOf[K]});
          ++Copied;
          break;
        }
    }
  // New siblings continue B's execution; B restarts on fewer simulators.
  for (const std::unique_ptr<Branch> &C : New)
    C->start(G, B.Interp.get());
  if (B.Sims.size() != Had) {
    std::unique_ptr<exec::Interpreter> Old = std::move(B.Interp);
    B.start(G, Old.get());
  }
  return New;
}

/// \p Which of \p Members run as one group per GC variant (first-member
/// order), their results stored into \p Results: the fallback when an
/// allocation-pressure collection hit a shared branch.
void runByVariant(const WorkloadSpec &Spec, std::span<const RunOptions> Members,
                  std::vector<size_t> Which, std::vector<RunResult> &Results) {
  while (!Which.empty()) {
    const vm::GcVariant V = Members[Which.front()].GcVariant;
    std::vector<size_t> Part;
    std::vector<RunOptions> Opts;
    std::erase_if(Which, [&](size_t K) {
      if (Members[K].GcVariant != V)
        return false;
      Part.push_back(K);
      Opts.push_back(Members[K]);
      return true;
    });
    std::vector<RunResult> Rs = runWorkloadGroup(Spec, Opts);
    for (size_t P = 0; P != Part.size(); ++P)
      Results[Part[P]] = std::move(Rs[P]);
  }
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

SharedWorld workloads::buildSharedWorld(const WorkloadSpec &Spec,
                                       std::span<const RunOptions> Members) {
  assert(!Members.empty());
  SharedWorld S;
  obs::Span BuildSpan("build-workload", "runner");
  S.W = Spec.Build(Members.front().Config);
  BuildSpan.end();

  // The distinct compile configurations, in first-member order. Without
  // the pass, the pass options do not matter. A member whose options
  // throw (its TunePass) gets a failed configuration of its own.
  std::vector<jit::CompileManager::Options> Configs;
  for (const RunOptions &M : Members) {
    jit::CompileManager::Options O;
    std::exception_ptr Error;
    try {
      O = compileOptionsFor(M);
    } catch (...) {
      Error = std::current_exception();
    }
    if (!O.EnablePrefetch)
      O.Pass = {};
    auto It = Error ? Configs.end()
                    : std::find(Configs.begin(), Configs.end(), O);
    S.ConfigOf.push_back(It - Configs.begin());
    if (It == Configs.end()) {
      Configs.push_back(std::move(O));
      S.Failed.push_back(Error);
    }
  }
  const size_t N = Configs.size();
  for (const jit::CompileManager::Options &O : Configs)
    S.Jits.emplace_back(*S.W.Heap, O);
  std::vector<obs::DecisionLog> Logs(N);

  // The conventional pipeline runs once per unit, in unit order; then
  // each configuration's pass runs on exactly the IR its solo compile
  // would see: the unit prepared, the units before it carrying that
  // configuration's own prefetch code and the units after it raw. Each
  // configuration's code is detached again right after its pass.
  std::span<const CompileUnit> Units = S.W.executedUnits();
  std::vector<std::vector<core::DetachedCode>> Code(N);
  for (std::vector<core::DetachedCode> &C : Code)
    C.resize(Units.size());
  obs::Span JitSpan("jit", "runner");
  for (size_t U = 0; U != Units.size(); ++U) {
    ir::Method *M = Units[U].M;
    obs::Span CompileSpan("compile", "jit");
    CompileSpan.note("method", M->name());
    jit::CompileResult Prepared;
    std::unique_ptr<jit::MethodAnalyses> A =
        jit::CompileManager::prepare(M, Prepared);
    for (size_t C = 0; C != N; ++C) {
      if (S.Failed[C])
        continue;
      for (size_t J = 0; J != U; ++J)
        core::attachPrefetchCode(std::move(Code[C][J]));
      std::optional<obs::DecisionScope> Scope;
      if (obs::enabled())
        Scope.emplace(Logs[C]);
      jit::CompileResult R = Prepared;
      try {
        if (A)
          S.Jits[C].runPass(M, Units[U].Args, *A, R);
        S.Jits[C].record(R);
      } catch (...) {
        S.Failed[C] = std::current_exception();
      }
      for (size_t J = 0; J <= U; ++J)
        Code[C][J] = core::detachPrefetchCode(*Units[J].M);
    }
  }
  JitSpan.end();

  // Owners: configurations whose code is equal share one; a
  // configuration without code has owner 0. Each owner's code goes back
  // into the program tagged with its owner.
  std::vector<unsigned> OwnerOfConfig(N, 0);
  std::vector<size_t> ConfigOfOwner{N}; // Owner -> representative.
  for (size_t C = 0; C != N; ++C) {
    if (S.Failed[C] || std::all_of(Code[C].begin(), Code[C].end(),
                                   [](const core::DetachedCode &D) {
                                     return D.Entries.empty();
                                   }))
      continue;
    auto Same = [&](size_t Rep) {
      for (size_t U = 0; U != Units.size(); ++U)
        if (!core::samePrefetchCode(Code[Rep][U], Code[C][U]))
          return false;
      return true;
    };
    unsigned O = 1;
    while (O != ConfigOfOwner.size() && !Same(ConfigOfOwner[O]))
      ++O;
    if (O == ConfigOfOwner.size())
      ConfigOfOwner.push_back(C);
    OwnerOfConfig[C] = O;
  }
  for (unsigned O = 1; O != ConfigOfOwner.size(); ++O)
    for (core::DetachedCode &D : Code[ConfigOfOwner[O]]) {
      for (core::DetachedCode::Entry &E : D.Entries)
        cast<ir::AddressedInst>(E.I.get())->setOwner(O);
      core::attachPrefetchCode(std::move(D));
    }
  S.Owners = static_cast<unsigned>(ConfigOfOwner.size());
  for (size_t C : S.ConfigOf)
    S.OwnerOf.push_back(OwnerOfConfig[C]);
  for (obs::DecisionLog &L : Logs)
    S.Decisions.push_back(L.take());
  return S;
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
                              const ExecutionTasks &Tasks) {
  assert(!Members.empty());
  const RunOptions &Opts = Members.front();
  RunResult Result;

  obs::Span RunSpan("run-workload", "runner");
  RunSpan.note("workload", Spec.Name);
  RunSpan.note("algorithm", algorithmName(Opts.Algo));
  RunSpan.noteU64("members", Members.size());

  // One world and one union program for every member. The decision logs
  // record at compile time, before the simulated (timed) execution
  // below — observability never runs inside the timed region.
  SharedWorld S = buildSharedWorld(Spec, Members);
  const size_t Executed = S.W.executedUnits().size();
  ir::Method *Entry = S.W.Entry;
  const Group G{Members, S, Entry,
                std::any_of(Members.begin(), Members.end(),
                            [](const RunOptions &O) { return O.Governor; })};

  SharedExecution Out;
  Out.Results.resize(Members.size());
  std::mutex Lock; // Guards Out.Left, Branches, SimsBuilt and EpochRuns.
  auto Leave = [&](size_t K) {
    {
      std::lock_guard<std::mutex> L(Lock);
      Out.Left.push_back(K);
    }
    if (Tasks.OnLeave)
      Tasks.OnLeave(K);
  };

  // A member whose pass threw cannot share: it runs alone, where the
  // same exception gives it its own verdict.
  std::vector<size_t> Everyone;
  for (size_t K = 0; K != Members.size(); ++K) {
    if (!S.Failed[S.ConfigOf[K]])
      Everyone.push_back(K);
    else if (Members.size() == 1)
      std::rethrow_exception(S.Failed[S.ConfigOf[K]]);
    else
      Leave(K);
  }
  if (Everyone.empty())
    return Out;

  // The first branch runs the built world for every member, on one
  // simulator per distinct (machine, owner) pair; a simulator that a
  // governed member uses tracks prefetch health, the governor's evidence.
  std::vector<std::unique_ptr<Branch>> Branches;
  Branch &First = *Branches.emplace_back(std::make_unique<Branch>(
      WorldState{std::move(S.W.Heap), std::move(S.W.Roots), S.W.EntryArgs,
                 std::move(S.W.CompileUnits)},
      std::move(Everyone)));
  for (size_t K : First.Members)
    if (!First.simFor(G, K))
      First.Sims.push_back(
          {std::make_unique<sim::MemorySystem>(Members[K].Machine),
           S.OwnerOf[K]});
  for (size_t K : First.Members)
    if (Members[K].Governor)
      First.simFor(G, K)->enablePrefetchHealth();
  size_t SimsBuilt = First.Sims.size();
  First.start(G, nullptr);
  // One governor per governed member, recording into its own log.
  std::vector<opt::Governor> Govs(Members.size());
  std::vector<obs::DecisionLog> GovLogs(Members.size());

  // Governor re-decisions for \p B's members at an epoch boundary run
  // between epochs — outside the timed interpretation, like everything
  // else that records decisions. Each event names its site, not the last
  // loop the JIT compiled.
  auto Govern = [&](Branch &B) {
    const size_t Had = B.Members.size();
    for (size_t K : std::vector<size_t>(B.Members)) {
      if (!Members[K].Governor)
        continue;
      std::optional<obs::DecisionScope> Scope;
      if (obs::enabled())
        Scope.emplace(GovLogs[K]);
      GovLogs[K].setContext("", 0);
      const sim::MemorySystem &Mem = *B.simFor(G, K);
      opt::EpochVerdict V = Govs[K].endEpoch(Mem.siteStats());
      if (V.Quarantined.empty() && !V.Reinspect)
        continue;
      if (Members.size() > 1) {
        // Acting would change what the other members execute: the
        // member leaves and re-runs alone.
        std::erase(B.Members, K);
        Leave(K);
      } else if (V.Reinspect) {
        // Strip every unit's prefetch code and re-run the pipeline
        // against the *current* (post-GC) heap layout; every quarantine,
        // this epoch's included, is void with the code it suppressed.
        jit::CompileManager &Jit = S.Jits[S.ConfigOf[K]];
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
    if (B.Members.size() != Had && !B.Members.empty())
      B.dropIdleSims(G);
  };

  // One step runs branch B's epoch E: the boundary collection before it
  // (unless B split off there), the governors' verdicts, the run. At
  // Jobs=1 (no spawner) every step then queues B's next one, so branches
  // advance epoch by epoch in turn; with workers B carries on in its step
  // and only the branches it splits off wait for a worker.
  const unsigned Epochs = Opts.Epochs ? Opts.Epochs : 1;
  StepQueue Steps(Tasks.Spawn);
  size_t EpochRuns = 0;
  // An allocation-pressure collection inside a branch of several GC
  // variants ran under one of them only: the shared execution is void.
  std::atomic<bool> Split{false};
  std::function<void(Branch *, unsigned, bool)> Step =
      [&](Branch *B, unsigned E, bool Boundary) {
        for (;; Boundary = true) {
          if (Split.load())
            return;
          if (E > 0) {
            if (Boundary) {
              // A full GC under each member's placement variant.
              const bool Phase = Opts.PhaseChange && E == (Epochs + 1) / 2;
              size_t Copied = 0;
              std::vector<std::unique_ptr<Branch>> New =
                  boundary(*B, G, Phase, Copied);
              std::vector<Branch *> Started;
              {
                std::lock_guard<std::mutex> L(Lock);
                SimsBuilt += Copied;
                for (std::unique_ptr<Branch> &C : New)
                  Started.push_back(Branches.emplace_back(std::move(C)).get());
              }
              for (Branch *C : Started)
                Steps.push([&Step, C, E] { Step(C, E, false); });
            }
            Govern(*B);
            if (B->Members.empty())
              return;
          }
          uint64_t Ret = B->Interp->run(Entry, B->World.EntryArgs);
          if (E == 0)
            Result.ReturnValue = Ret;
          {
            std::lock_guard<std::mutex> L(Lock);
            ++EpochRuns;
          }
          if (B->Interp->stats().GcRuns && variantsOf(*B, G).size() > 1) {
            Split = true;
            return;
          }
          if (++E == Epochs)
            return;
          if (!Tasks.Spawn) {
            Steps.push([&Step, B, E] { Step(B, E, true); });
            return;
          }
        }
      };

  obs::Span SimSpan("simulate", "runner");
  SimSpan.note("workload", Spec.Name);
  auto Start = std::chrono::steady_clock::now();
  Steps.push([&Step, &First] { Step(&First, 0, false); });
  Steps.drain();
  Result.InterpretUs = elapsedUs(Start);
  SimSpan.end();
  RunSpan.noteU64("simulators", SimsBuilt);
  RunSpan.noteU64("epoch_runs", EpochRuns);
  std::sort(Out.Left.begin(), Out.Left.end());
  if (Split) {
    std::vector<size_t> Stayed;
    for (size_t K = 0; K != Members.size(); ++K)
      if (!std::binary_search(Out.Left.begin(), Out.Left.end(), K))
        Stayed.push_back(K);
    runByVariant(Spec, Members, std::move(Stayed), Out.Results);
    return Out;
  }

  Result.Epochs = Epochs;
  // Self-check uses epoch 0's return value (captured above): later
  // epochs legitimately diverge once the phase change reorders data.
  if (S.W.Expected)
    Result.SelfCheckOk = Result.ReturnValue == *S.W.Expected;

  // One result per member: its branch's execution, seen through its
  // owner's code, plus its own simulator's statistics and its own
  // compile. The first member that stayed reports the interpretation.
  size_t Lead = 0;
  while (std::binary_search(Out.Left.begin(), Out.Left.end(), Lead))
    ++Lead;
  for (const std::unique_ptr<Branch> &B : Branches)
    for (size_t K : B->Members) {
      const sim::MemorySystem &Mem = *B->simFor(G, K);
      RunResult &R = Out.Results[K] = Result;
      if (K != Lead) {
        R.Replayed = true;
        R.InterpretUs = 0;
      }
      R.Exec = B->Interp->statsFor(S.OwnerOf[K]);
      R.Retired = R.Exec.Retired;
      R.GcCollections = B->Interp->gc().collectionCount();
      R.CompiledCycles = Mem.cycles();
      R.Mem = Mem.stats();
      R.Acct = Mem.acct();
      R.Sites = Mem.siteStats();
      if (!Members[K].Governor)
        sim::clearPrefetchHealth(R.Mem, R.Sites);
      R.Prefetch = S.Jits[S.ConfigOf[K]].aggregatePrefetch();
      R.Decisions = S.Decisions[S.ConfigOf[K]];
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
                            std::span<const RunOptions> Members) {
  SharedExecution Run = runSharedExecution(Spec, Members);
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
