//===- tests/fanout_test.cpp - Shared executions ---------------------------===//
//
// Execution sharing's contract, bottom to top: a partner set's union
// program is the BASELINE program plus prefetch code only (stripping it
// gives BASELINE back), and a group interpreted once by runWorkloadGroup
// and fanned out to one MemorySystem per distinct (machine, owner) pair
// gives every member the result of a solo runWorkload, bit for bit and
// field by field — across epoch boundaries, and for governed members too.
//
//===----------------------------------------------------------------------===//

#include "ExpectSameRun.h"
#include "ir/IRPrinter.h"
#include "obs/Tracer.h"
#include "sim/CountingSink.h"
#include "workloads/Runner.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <sstream>

using namespace spf;

namespace {

workloads::WorkloadConfig tinyConfig() {
  workloads::WorkloadConfig Cfg;
  Cfg.Scale = 0.05;
  return Cfg;
}

sim::MachineConfig machine(const char *Name) {
  return *sim::MachineConfig::byName(Name);
}

// -- CountingSink ------------------------------------------------------------

TEST(CountingSinkTest, CountsEveryCall) {
  sim::CountingSink Counts;
  for (unsigned I = 0; I != 20000; ++I) {
    Counts.tick(3);
    Counts.load(0x100000 + 24 * I, 0);
    Counts.load(0x900000 + 4096 * I, 1);
    Counts.store(0x400000 + 8 * (I % 512));
    if (I % 3 == 0)
      Counts.prefetch(0x100000 + 24 * (I + 4), 0);
    if (I % 5 == 0)
      Counts.guardedLoad(0x800000 + 64 * I, 0);
    if (I % 1024 == 0)
      Counts.guardedLoadFault(0);
  }
  EXPECT_EQ(Counts.TickCalls, 20000u);
  EXPECT_EQ(Counts.TicksTotal, 60000u);
  EXPECT_EQ(Counts.Loads, 40000u);
  EXPECT_EQ(Counts.Stores, 20000u);
  EXPECT_EQ(Counts.Prefetches, 6667u);
  EXPECT_EQ(Counts.GuardedLoads, 4000u);
  EXPECT_EQ(Counts.GuardedLoadFaults, 20u);
  EXPECT_EQ(Counts.LoadSites, 2u);
  EXPECT_EQ(Counts.totalCalls(),
            Counts.TickCalls + Counts.Loads + Counts.Stores +
                Counts.Prefetches + Counts.GuardedLoads +
                Counts.GuardedLoadFaults);
}

// -- The union program -------------------------------------------------------

/// The printed executed units of \p W.
std::vector<std::string> printedUnits(const workloads::BuiltWorkload &W) {
  std::vector<std::string> Out;
  for (const workloads::CompileUnit &CU : W.executedUnits()) {
    std::ostringstream OS;
    ir::printMethod(OS, CU.M);
    Out.push_back(OS.str());
  }
  return Out;
}

/// The Figures 6-10 cells of one workload: 3 algorithms x P4/Athlon.
std::vector<workloads::RunOptions> sweepSet() {
  std::vector<workloads::RunOptions> Members;
  for (const char *M : {"pentium4", "athlonmp"})
    for (workloads::Algorithm A :
         {workloads::Algorithm::Baseline, workloads::Algorithm::Inter,
          workloads::Algorithm::InterIntra}) {
      workloads::RunOptions &Opt = Members.emplace_back();
      Opt.Machine = machine(M);
      Opt.Algo = A;
      Opt.Config = tinyConfig();
    }
  return Members;
}

TEST(UnionProgramTest, StrippingThePrefetchCodeGivesTheBaselineProgram) {
  // Every workload's sweep set plus one ablation cell, INTER+INTRA on the
  // Pentium 4 at scheduling distance 4. Stripping every owner's code
  // from the union program must leave exactly what a BASELINE compile
  // prints, unit by unit; the owners are as many as the distinct
  // programs the cells compile to: 22 for the 72 sweep cells at this
  // scale, and the distance changes the code wherever there is any.
  unsigned Programs = 0;
  for (const workloads::WorkloadSpec &Spec : workloads::allWorkloads()) {
    std::vector<workloads::RunOptions> Members = sweepSet();
    workloads::RunOptions &Tuned = Members.emplace_back(Members[2]);
    Tuned.TunePass = [](core::PrefetchPassOptions &P) {
      P.Planner.ScheduleDistance = 4;
    };
    workloads::SharedWorld S = workloads::buildSharedWorld(Spec, Members);
    ASSERT_EQ(S.OwnerOf.size(), Members.size()) << Spec.Name;
    EXPECT_EQ(S.OwnerOf[0], 0u) << Spec.Name;
    EXPECT_EQ(S.OwnerOf[3], 0u) << Spec.Name;
    if (S.OwnerOf[2]) {
      EXPECT_NE(S.OwnerOf[6], S.OwnerOf[2]) << Spec.Name;
    }
    Programs += std::set<unsigned>(S.OwnerOf.begin(), S.OwnerOf.end() - 1)
                    .size();

    // Every owner's code is in the program, tagged with its owner.
    std::set<unsigned> Tagged;
    for (const workloads::CompileUnit &CU : S.W.executedUnits())
      for (const auto &BB : CU.M->blocks())
        for (const auto &I : BB->instructions())
          if (const auto *AI = dyn_cast<ir::AddressedInst>(I.get()))
            Tagged.insert(AI->owner());
    std::set<unsigned> Owners(S.OwnerOf.begin(), S.OwnerOf.end());
    Owners.erase(0);
    EXPECT_EQ(Tagged, Owners) << Spec.Name;

    for (const workloads::CompileUnit &CU : S.W.executedUnits())
      core::stripPrefetchCode(*CU.M);
    workloads::BuiltWorkload Base = Spec.Build(tinyConfig());
    jit::CompileManager Jit(*Base.Heap, workloads::compileOptionsFor(
                                            Members[0]));
    for (const workloads::CompileUnit &CU : Base.executedUnits())
      Jit.compile(CU.M, CU.Args);
    EXPECT_EQ(printedUnits(S.W), printedUnits(Base)) << Spec.Name;
  }
  EXPECT_EQ(Programs, 22u);
}

// -- Differential: a shared execution == solo runs ---------------------------

/// Checks that \p G, a member's result from a group, equals \p Solo, its
/// solo runWorkload, in every field but Replayed and InterpretUs.
void expectEqualsSolo(const workloads::RunResult &G,
                      const workloads::RunResult &Solo,
                      const std::string &Tag) {
  EXPECT_FALSE(Solo.Replayed) << Tag;
  EXPECT_EQ(G.Acct.total(), G.CompiledCycles) << Tag;
  EXPECT_TRUE(G.SelfCheckOk) << Tag;
  expectSameRun(G, Solo, Tag, /*WithReplayed=*/false);
}

std::string memberTag(const workloads::WorkloadSpec &Spec,
                      const workloads::RunOptions &M, size_t K) {
  return Spec.Name + " on " + M.Machine.Name + " under " +
         vm::gcVariantName(M.GcVariant) + " (member " + std::to_string(K) +
         ")";
}

/// Runs \p Members as one group and each member alone, and checks that
/// every member's grouped result equals its solo result, and that the
/// group's traced run-workload span built \p Simulators simulators (and,
/// when given, ran \p EpochRuns epochs over all its branches).
/// The grouped results go to \p Out when it is non-null.
void expectGroupMatchesSoloRuns(
    const workloads::WorkloadSpec &Spec,
    const std::vector<workloads::RunOptions> &Members, size_t Simulators,
    std::vector<workloads::RunResult> *Out = nullptr,
    std::optional<size_t> EpochRuns = std::nullopt) {
  obs::Tracer &T = obs::Tracer::instance();
  T.drain();
  T.enable();
  std::vector<workloads::RunResult> Group =
      workloads::runWorkloadGroup(Spec, Members);
  T.disable();
  ASSERT_EQ(Group.size(), Members.size()) << Spec.Name;
  std::vector<obs::TraceEvent> Evs = T.drain();
  auto Run = std::find_if(Evs.begin(), Evs.end(), [](const auto &E) {
    return E.Name == "run-workload";
  });
  ASSERT_NE(Run, Evs.end()) << Spec.Name;
  std::map<std::string, std::string> Args(Run->Args.begin(), Run->Args.end());
  EXPECT_EQ(Args["members"], std::to_string(Members.size())) << Spec.Name;
  EXPECT_EQ(Args["simulators"], std::to_string(Simulators)) << Spec.Name;
  if (EpochRuns) {
    EXPECT_EQ(Args["epoch_runs"], std::to_string(*EpochRuns)) << Spec.Name;
  }
  for (size_t K = 0; K != Members.size(); ++K) {
    std::string Tag = memberTag(Spec, Members[K], K);
    EXPECT_EQ(Group[K].Replayed, K != 0) << Tag;
    expectEqualsSolo(Group[K], workloads::runWorkload(Spec, Members[K]),
                     Tag);
  }
  if (Out)
    *Out = std::move(Group);
}

TEST(FanOutTest, BaselineGroupsMatchSoloRunsForEveryWorkload) {
  // Every Table 3 workload as one BASELINE execution over all three
  // machines — including the walked-TLB, RPT-prefetching Modern3L.
  for (const workloads::WorkloadSpec &Spec : workloads::allWorkloads()) {
    std::vector<workloads::RunOptions> Members(3);
    const char *Names[] = {"pentium4", "athlonmp", "modern3l"};
    for (size_t K = 0; K != Members.size(); ++K) {
      Members[K].Machine = machine(Names[K]);
      Members[K].Config = tinyConfig();
    }
    expectGroupMatchesSoloRuns(Spec, Members, 3);
  }
}

TEST(FanOutTest, EverySweepSetMatchesSoloRuns) {
  // Each workload's six Figures 6-10 cells are one execution of their
  // union program, on one simulator per distinct (machine, owner) pair:
  // 38 over the 72 cells at this scale.
  size_t Simulators = 0;
  for (const workloads::WorkloadSpec &Spec : workloads::allWorkloads()) {
    const std::vector<workloads::RunOptions> Members = sweepSet();
    const workloads::SharedWorld S =
        workloads::buildSharedWorld(Spec, Members);
    std::set<std::pair<std::string, unsigned>> Pairs;
    for (size_t K = 0; K != Members.size(); ++K)
      Pairs.emplace(Members[K].Machine.Name, S.OwnerOf[K]);
    Simulators += Pairs.size();
    expectGroupMatchesSoloRuns(Spec, Members, Pairs.size());
  }
  EXPECT_EQ(Simulators, 38u);
}

TEST(FanOutTest, InterIntraGroupMatchesSoloRuns) {
  // INTER+INTRA compiles for the software-prefetch fill line: the Athlon
  // MP and Modern3L both fill the 64-byte L1, and the hardware prefetcher
  // never reaches the compiler, so all three compile to one program. The
  // two Athlons differ only in HwPrefetchEnabled: three simulators.
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("db");
  ASSERT_NE(Spec, nullptr);
  std::vector<workloads::RunOptions> Members(3);
  Members[0].Machine = machine("athlonmp");
  Members[1].Machine = machine("modern3l");
  Members[2].Machine = machine("athlonmp");
  Members[2].Machine.HwPrefetchEnabled = false;
  for (workloads::RunOptions &M : Members) {
    M.Algo = workloads::Algorithm::InterIntra;
    M.Config = tinyConfig();
  }
  expectGroupMatchesSoloRuns(*Spec, Members, 3);
}

TEST(FanOutTest, MembersOnOneMachineShareOneSimulator) {
  // compress compiles to one program under all three algorithms on both
  // machines: six members, interleaved by machine, on two simulators.
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("compress");
  ASSERT_NE(Spec, nullptr);
  std::vector<workloads::RunOptions> Members;
  for (workloads::Algorithm A :
       {workloads::Algorithm::Baseline, workloads::Algorithm::Inter,
        workloads::Algorithm::InterIntra})
    for (const char *M : {"pentium4", "athlonmp"}) {
      workloads::RunOptions &Opt = Members.emplace_back();
      Opt.Machine = machine(M);
      Opt.Algo = A;
      Opt.Config = tinyConfig();
    }
  expectGroupMatchesSoloRuns(*Spec, Members, 2);
}

TEST(FanOutTest, EpochGroupMatchesSoloRunsOnEveryMember) {
  // Three epochs under the mark-sweep variant: two boundary collections,
  // whose pause ticks reach every member's machine through the fan-out.
  // Each member must still equal its solo run in Acct, Sites, Mem and
  // GcCollections.
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("jess");
  ASSERT_NE(Spec, nullptr);
  std::vector<workloads::RunOptions> Members(3);
  Members[0].Machine = machine("pentium4");
  Members[1].Machine = machine("athlonmp");
  Members[2].Machine = machine("modern3l");
  for (workloads::RunOptions &M : Members) {
    M.Config = tinyConfig();
    M.Epochs = 3;
    M.GcVariant = vm::GcVariant::MarkSweep;
  }
  std::vector<workloads::RunResult> Group;
  expectGroupMatchesSoloRuns(*Spec, Members, 3, &Group);
  ASSERT_EQ(Group.size(), Members.size());
  for (size_t K = 0; K != Group.size(); ++K) {
    EXPECT_EQ(Group[K].Epochs, 3u) << "member " << K;
    EXPECT_GE(Group[K].GcCollections, 2u) << "member " << K;
  }
}

TEST(FanOutTest, SameMachineEpochGroupDrivesOneSimulatorDirectly) {
  // jack BASELINE and INTER+INTRA on the Pentium 4 compile to one program:
  // one simulator, the only target of its branch's event buffer, across
  // two address-shuffling boundary collections.
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("jack");
  ASSERT_NE(Spec, nullptr);
  std::vector<workloads::RunOptions> Members(2);
  Members[0].Algo = workloads::Algorithm::Baseline;
  Members[1].Algo = workloads::Algorithm::InterIntra;
  for (workloads::RunOptions &M : Members) {
    M.Machine = machine("pentium4");
    M.Config = tinyConfig();
    M.Epochs = 3;
    M.GcVariant = vm::GcVariant::AddressShuffle;
  }
  std::vector<workloads::RunResult> Group;
  expectGroupMatchesSoloRuns(*Spec, Members, 1, &Group);
  ASSERT_EQ(Group.size(), Members.size());
  for (size_t K = 0; K != Group.size(); ++K) {
    EXPECT_EQ(Group[K].Epochs, 3u) << "member " << K;
    EXPECT_GE(Group[K].GcCollections, 2u) << "member " << K;
  }
}

// -- Epoch branches: one execution per program until the heaps differ --------

/// \p Spec under every GC variant at \p Epochs epochs on the Pentium 4.
std::vector<workloads::RunOptions> everyVariant(unsigned Epochs) {
  std::vector<workloads::RunOptions> Members;
  for (vm::GcVariant V :
       {vm::GcVariant::MarkSweep, vm::GcVariant::AddressShuffle,
        vm::GcVariant::PromotionOrder, vm::GcVariant::SlidingCompact}) {
    workloads::RunOptions &M = Members.emplace_back();
    M.Machine = machine("pentium4");
    M.Config = tinyConfig();
    M.Epochs = Epochs;
    M.GcVariant = V;
  }
  return Members;
}

TEST(FanOutTest, VariantsShareEpochsUntilHeapsDiffer) {
  // BASELINE under all four variants on the Pentium 4, plus Modern3L
  // members under address-shuffle and promotion-order. Epoch 0 runs once,
  // and every boundary splits the execution by variant. The first split
  // hands Modern3L to the address-shuffle branch and copies it for the
  // promotion-order one; jess resolves Modern3L's RPT fills after that,
  // through the tag observer the copy must re-point at itself.
  //  - db: mark-sweep and sliding-compact leave equal heaps at every
  //    boundary and stay one branch: 1 + 3 x 3 = 10 epoch runs; 2 machines
  //    plus 2 Pentium 4 copies and 1 Modern3L copy = 5 simulators.
  //  - jess: the four variants' heaps all differ: 1 + 3 x 4 = 13 epoch
  //    runs; one more Pentium 4 copy = 6 simulators.
  struct Expect {
    const char *Workload;
    size_t Simulators;
    size_t EpochRuns;
  };
  for (const Expect &X : {Expect{"db", 5, 10}, Expect{"jess", 6, 13}}) {
    const workloads::WorkloadSpec *Spec = workloads::findWorkload(X.Workload);
    ASSERT_NE(Spec, nullptr);
    std::vector<workloads::RunOptions> Members = everyVariant(4);
    for (size_t K : {1, 2}) {
      Members.push_back(Members[K]);
      Members.back().Machine = machine("modern3l");
    }
    expectGroupMatchesSoloRuns(*Spec, Members, X.Simulators, nullptr,
                               X.EpochRuns);
  }
}

TEST(FanOutTest, VariantsThatLeaveEqualHeapsNeverSplit) {
  // MonteCarlo's heap is the same after every collection under every
  // variant: one execution of each of its 4 epochs serves all four.
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("MonteCarlo");
  ASSERT_NE(Spec, nullptr);
  expectGroupMatchesSoloRuns(*Spec, everyVariant(4), 1, nullptr, 4);
}

TEST(FanOutTest, PressureCollectionInASharedBranchSplitsTheGroupByVariant) {
  // A heap just larger than jess's world: epoch 0's allocations trigger a
  // collection, which a branch of two variants cannot place. The group
  // falls back to one execution per variant, so each member still equals
  // its solo run. With a second epoch, that run re-enters jess on the
  // entry args the pressure collection moved.
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("jess");
  ASSERT_NE(Spec, nullptr);
  for (unsigned Epochs : {1u, 2u}) {
    std::vector<workloads::RunOptions> Members(2);
    Members[0].GcVariant = vm::GcVariant::SlidingCompact;
    Members[1].GcVariant = vm::GcVariant::AddressShuffle;
    for (workloads::RunOptions &M : Members) {
      M.Machine = machine("pentium4");
      M.Config = tinyConfig();
      M.Config.HeapBytes = 20480;
      M.Epochs = Epochs;
    }
    std::vector<workloads::RunResult> Group =
        workloads::runWorkloadGroup(*Spec, Members);
    ASSERT_EQ(Group.size(), Members.size());
    for (size_t K = 0; K != Members.size(); ++K) {
      const workloads::RunResult Solo =
          workloads::runWorkload(*Spec, Members[K]);
      const std::string Tag = memberTag(*Spec, Members[K], K) + " epochs " +
                              std::to_string(Epochs);
      EXPECT_GT(Solo.Exec.GcRuns, 0u) << Tag;
      EXPECT_TRUE(Solo.SelfCheckOk) << Tag;
      EXPECT_FALSE(Group[K].Replayed) << Tag;
      expectEqualsSolo(Group[K], Solo, Tag);
    }
    EXPECT_NE(Group[0].CompiledCycles, Group[1].CompiledCycles) << Epochs;
  }
}

// -- Governed members: one execution until the governor acts ----------------

/// \p Algo on \p Machine over \p Epochs epochs: an ungoverned and a
/// governed member under each of \p Variants.
std::vector<workloads::RunOptions>
governedGrid(const char *Machine, workloads::Algorithm Algo, unsigned Epochs,
             std::initializer_list<vm::GcVariant> Variants) {
  std::vector<workloads::RunOptions> Members;
  for (vm::GcVariant V : Variants)
    for (bool Governor : {false, true}) {
      workloads::RunOptions &M = Members.emplace_back();
      M.Machine = machine(Machine);
      M.Algo = Algo;
      M.Config = tinyConfig();
      M.Epochs = Epochs;
      M.GcVariant = V;
      M.Governor = Governor;
    }
  return Members;
}

/// Runs \p Members as one group and checks that every member equals its
/// solo run, governed members in their health counters too, and that
/// exactly the members in \p WantLeft left the shared execution. Returns
/// the useful prefetches the governed members' machines resolved.
uint64_t expectGovernedGroupMatchesSoloRuns(
    const workloads::WorkloadSpec &Spec,
    const std::vector<workloads::RunOptions> &Members,
    const std::vector<size_t> &WantLeft) {
  EXPECT_EQ(workloads::runSharedExecution(Spec, Members).Left, WantLeft)
      << Spec.Name;
  std::vector<workloads::RunResult> Group =
      workloads::runWorkloadGroup(Spec, Members);
  EXPECT_EQ(Group.size(), Members.size()) << Spec.Name;
  uint64_t Useful = 0;
  bool LeadSeen = false; // The first member that stayed reports the run.
  for (size_t K = 0; K != std::min(Group.size(), Members.size()); ++K) {
    std::string Tag = memberTag(Spec, Members[K], K) +
                      (Members[K].Governor ? " governed" : "");
    const bool Left =
        std::find(WantLeft.begin(), WantLeft.end(), K) != WantLeft.end();
    const workloads::RunResult Solo = workloads::runWorkload(Spec, Members[K]);
    EXPECT_EQ(Group[K].Replayed, !Left && LeadSeen) << Tag;
    LeadSeen |= !Left;
    expectEqualsSolo(Group[K], Solo, Tag);
    EXPECT_EQ(Solo.GovernorQuarantined + Solo.GovernorReinspections > 0, Left)
        << Tag;
    if (Members[K].Governor)
      Useful += Group[K].Mem.SwPrefetchesUseful;
    else
      EXPECT_EQ(Group[K].Mem.SwPrefetchesUseful, 0u) << Tag;
  }
  return Useful;
}

TEST(GovernedSharingTest, RidersEqualSoloRuns) {
  // The perfbench adaptation grid's INTER+INTRA members at 4 epochs on the
  // Pentium 4: each perturbing variant governed and not, plus the
  // compacting reference. Governed members ride the shared execution, on
  // the health-tracking machine their ungoverned partners share. As on
  // perfbench's grid, only db's governor under address-shuffle (member 3)
  // acts, at the first boundary; it leaves, and the others ride to the
  // end.
  uint64_t Useful = 0;
  for (const char *Name : {"db", "jack", "MonteCarlo"}) {
    const std::vector<size_t> WantLeft =
        std::string(Name) == "db" ? std::vector<size_t>{3}
                                  : std::vector<size_t>{};
    const workloads::WorkloadSpec *Spec = workloads::findWorkload(Name);
    ASSERT_NE(Spec, nullptr);
    std::vector<workloads::RunOptions> Members = governedGrid(
        "pentium4", workloads::Algorithm::InterIntra, 4,
        {vm::GcVariant::MarkSweep, vm::GcVariant::AddressShuffle,
         vm::GcVariant::PromotionOrder});
    Members.push_back(Members.front());
    Members.back().GcVariant = vm::GcVariant::SlidingCompact;
    Useful += expectGovernedGroupMatchesSoloRuns(*Spec, Members, WantLeft);
  }
  EXPECT_GT(Useful, 0u); // db's prefetches resolve on the shared machine.
}

TEST(GovernedSharingTest, AdaptationGridMatchesSoloRuns) {
  // bench/adaptation's grid at 3 epochs: the compacting INTER+INTRA
  // reference, then per perturbing variant the BASELINE floor and
  // INTER+INTRA ungoverned and governed. BASELINE and INTER+INTRA are two
  // owners of one union program, so each workload is one execution; only
  // db's governor under address-shuffle (member 6) acts, and leaves.
  for (const char *Name : {"db", "jack", "MonteCarlo"}) {
    const workloads::WorkloadSpec *Spec = workloads::findWorkload(Name);
    ASSERT_NE(Spec, nullptr);
    std::vector<workloads::RunOptions> Members = governedGrid(
        "pentium4", workloads::Algorithm::InterIntra, 3,
        {vm::GcVariant::SlidingCompact});
    Members.pop_back(); // The reference is ungoverned.
    for (vm::GcVariant V :
         {vm::GcVariant::MarkSweep, vm::GcVariant::AddressShuffle,
          vm::GcVariant::PromotionOrder}) {
      workloads::RunOptions &Floor = Members.emplace_back(Members.front());
      Floor.Algo = workloads::Algorithm::Baseline;
      Floor.GcVariant = V;
      for (const workloads::RunOptions &M :
           governedGrid("pentium4", workloads::Algorithm::InterIntra, 3, {V}))
        Members.push_back(M);
    }
    ASSERT_EQ(Members.size(), 10u);
    expectGovernedGroupMatchesSoloRuns(
        *Spec, Members,
        std::string(Name) == "db" ? std::vector<size_t>{6}
                                  : std::vector<size_t>{});
  }
}

TEST(GovernedSharingTest, MemberLeavesOnQuarantine) {
  // Euler INTER on the Athlon MP under address-shuffle quarantines one
  // site at the first boundary, too few to re-inspect: the governed member
  // leaves and its solo re-run suppresses the site in place.
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("Euler");
  ASSERT_NE(Spec, nullptr);
  std::vector<workloads::RunOptions> Members = governedGrid(
      "athlonmp", workloads::Algorithm::Inter, 3,
      {vm::GcVariant::AddressShuffle});
  expectGovernedGroupMatchesSoloRuns(*Spec, Members, {1});
  const workloads::RunResult Solo = workloads::runWorkload(*Spec, Members[1]);
  EXPECT_GT(Solo.GovernorQuarantined, 0u);
  EXPECT_EQ(Solo.GovernorReinspections, 0u);
}

TEST(GovernedSharingTest, MemberLeavesOnReinspection) {
  // db INTER+INTRA on the Pentium 4 under address-shuffle quarantines two
  // sites at the first boundary and re-inspects. The governed leader
  // leaves, so its ungoverned partner under the same variant reports the
  // execution; the mark-sweep pair keeps sharing it, on the same machine.
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("db");
  ASSERT_NE(Spec, nullptr);
  std::vector<workloads::RunOptions> Members = governedGrid(
      "pentium4", workloads::Algorithm::InterIntra, 3,
      {vm::GcVariant::AddressShuffle, vm::GcVariant::MarkSweep});
  std::swap(Members[0], Members[1]);
  expectGovernedGroupMatchesSoloRuns(*Spec, Members, {0});
  const workloads::RunResult Solo = workloads::runWorkload(*Spec, Members[0]);
  EXPECT_EQ(Solo.GovernorReinspections, 1u);
  // Governor events name their site, not the loop the JIT compiled last.
  unsigned GovernorEvents = 0;
  for (const obs::DecisionEvent &E : Solo.Decisions)
    if (E.Pass == "governor") {
      ++GovernorEvents;
      EXPECT_EQ(E.Method, "");
      EXPECT_EQ(E.Loop, 0u);
    }
  EXPECT_EQ(GovernorEvents, 3u); // Two quarantines and the re-inspection.
}

} // namespace
