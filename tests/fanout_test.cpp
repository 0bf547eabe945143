//===- tests/fanout_test.cpp - Shared executions ---------------------------===//
//
// Execution sharing's contract, bottom to top: the execution signature
// keys exactly what an access-event stream depends on, and a group of
// runs with one signature, interpreted once by runWorkloadGroup and fanned
// out to one MemorySystem per member, gives every member the result of a
// solo runWorkload on its machine, bit for bit — timeline samples and
// epoch-boundary samples included.
//
//===----------------------------------------------------------------------===//

#include "sim/CountingSink.h"
#include "workloads/Runner.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

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
      Counts.prefetch(0x100000 + 24 * (I + 4));
    if (I % 5 == 0)
      Counts.guardedLoad(0x800000 + 64 * I);
    if (I % 1024 == 0)
      Counts.guardedLoadFault();
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

// -- Execution signatures ---------------------------------------------------

TEST(ExecutionSignatureTest, BaselineIsMachineIndependent) {
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("jess");
  ASSERT_NE(Spec, nullptr);
  workloads::RunOptions P4, Athlon;
  P4.Machine = machine("pentium4");
  Athlon.Machine = machine("athlonmp");
  P4.Config = Athlon.Config = tinyConfig();

  // BASELINE never runs the planner: one execution serves every machine.
  EXPECT_EQ(workloads::executionSignature(*Spec, P4),
            workloads::executionSignature(*Spec, Athlon));

  // The prefetch algorithms read LineBytes / the guarded-load choice, so
  // the two machines (L2/128B/guarded vs L1/64B/unguarded) key apart.
  P4.Algo = Athlon.Algo = workloads::Algorithm::InterIntra;
  EXPECT_NE(workloads::executionSignature(*Spec, P4),
            workloads::executionSignature(*Spec, Athlon));

  // Different algorithm, different signature.
  workloads::RunOptions Inter = P4;
  Inter.Algo = workloads::Algorithm::Inter;
  EXPECT_NE(workloads::executionSignature(*Spec, P4),
            workloads::executionSignature(*Spec, Inter));

  // Different scale, different signature.
  workloads::RunOptions Scaled = P4;
  Scaled.Config.Scale = 0.1;
  EXPECT_NE(workloads::executionSignature(*Spec, P4),
            workloads::executionSignature(*Spec, Scaled));
}

TEST(ExecutionSignatureTest, TunedRunsNeedAStableKey) {
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("db");
  ASSERT_NE(Spec, nullptr);
  workloads::RunOptions Opt;
  Opt.Config = tinyConfig();
  Opt.TunePass = [](core::PrefetchPassOptions &P) {
    P.Planner.ScheduleDistance = 4;
  };
  // An arbitrary mutation cannot be keyed...
  EXPECT_EQ(workloads::executionSignature(*Spec, Opt), "");
  // ...until the caller names it.
  Opt.TuneKey = "dist=4";
  std::string Sig = workloads::executionSignature(*Spec, Opt);
  EXPECT_NE(Sig, "");
  EXPECT_NE(Sig.find("tune=dist=4"), std::string::npos);
}

TEST(ExecutionSignatureTest, EpochAndGcFacetsKeyApart) {
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("jess");
  ASSERT_NE(Spec, nullptr);
  workloads::RunOptions Classic;
  Classic.Config = tinyConfig();
  std::string Base = workloads::executionSignature(*Spec, Classic);
  ASSERT_NE(Base, "");

  // Defaults (1 epoch, sliding-compact, no phase change) add no facet.
  workloads::RunOptions Defaults = Classic;
  Defaults.Epochs = 1;
  Defaults.GcVariant = vm::GcVariant::SlidingCompact;
  EXPECT_EQ(workloads::executionSignature(*Spec, Defaults), Base);

  // Every adaptation facet keys its own execution — including for
  // BASELINE, whose memory behavior changes with the boundary
  // collections too.
  workloads::RunOptions Epochs = Classic;
  Epochs.Epochs = 4;
  std::string EpochSig = workloads::executionSignature(*Spec, Epochs);
  EXPECT_NE(EpochSig, Base);
  EXPECT_NE(EpochSig.find("epochs=4"), std::string::npos);

  workloads::RunOptions Variant = Epochs;
  Variant.GcVariant = vm::GcVariant::AddressShuffle;
  std::string VariantSig = workloads::executionSignature(*Spec, Variant);
  EXPECT_NE(VariantSig, EpochSig);
  EXPECT_NE(VariantSig.find("gc=address-shuffle"), std::string::npos);

  workloads::RunOptions Phase = Variant;
  Phase.PhaseChange = true;
  EXPECT_NE(workloads::executionSignature(*Spec, Phase), VariantSig);
}

TEST(ExecutionSignatureTest, GovernedRunsAreNeverKeyed) {
  // Governor re-decisions depend on observed machine timing, so a
  // governed execution can never serve another machine: like an unnamed
  // TunePass mutation it gets the empty (unkeyable) signature and always
  // runs alone.
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("jess");
  ASSERT_NE(Spec, nullptr);
  workloads::RunOptions Opt;
  Opt.Config = tinyConfig();
  Opt.Epochs = 4;
  Opt.Governor = true;
  EXPECT_EQ(workloads::executionSignature(*Spec, Opt), "");
}

// -- Differential: a shared execution == solo runs ---------------------------

/// Runs \p Members as one group and each member alone, and checks that
/// every member's grouped result equals its solo result. The grouped
/// results go to \p Out when it is non-null.
void expectGroupMatchesSoloRuns(
    const workloads::WorkloadSpec &Spec,
    const std::vector<workloads::RunOptions> &Members,
    std::vector<workloads::RunResult> *Out = nullptr) {
  const std::string Sig = workloads::executionSignature(Spec, Members[0]);
  ASSERT_NE(Sig, "") << Spec.Name;
  for (const workloads::RunOptions &M : Members)
    ASSERT_EQ(workloads::executionSignature(Spec, M), Sig) << Spec.Name;

  std::vector<workloads::RunResult> Group =
      workloads::runWorkloadGroup(Spec, Members);
  ASSERT_EQ(Group.size(), Members.size()) << Spec.Name;
  for (size_t K = 0; K != Members.size(); ++K) {
    const workloads::RunResult Solo = workloads::runWorkload(Spec, Members[K]);
    const workloads::RunResult &G = Group[K];
    std::string Tag = Spec.Name + " on " + Members[K].Machine.Name +
                      " (member " + std::to_string(K) + ")";
    EXPECT_EQ(G.Replayed, K != 0) << Tag;
    EXPECT_FALSE(Solo.Replayed) << Tag;
    EXPECT_EQ(G.Mem, Solo.Mem) << Tag;
    EXPECT_EQ(G.Acct, Solo.Acct) << Tag;
    EXPECT_EQ(G.Acct.total(), G.CompiledCycles) << Tag;
    EXPECT_EQ(G.Sites, Solo.Sites) << Tag;
    EXPECT_EQ(G.CompiledCycles, Solo.CompiledCycles) << Tag;
    EXPECT_EQ(G.Retired, Solo.Retired) << Tag;
    EXPECT_EQ(G.ReturnValue, Solo.ReturnValue) << Tag;
    EXPECT_TRUE(G.SelfCheckOk) << Tag;
    EXPECT_EQ(G.Timeline, Solo.Timeline) << Tag;
    EXPECT_EQ(G.Timeline.empty(), Members[K].TimelineEvery == 0) << Tag;
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
    expectGroupMatchesSoloRuns(Spec, Members);
  }
}

TEST(FanOutTest, InterIntraGroupMatchesSoloRuns) {
  // INTER+INTRA compiles for the software-prefetch fill line, so only
  // machines that agree on it share: the Athlon MP and Modern3L both
  // fill the 64-byte L1, and the hardware prefetcher never enters the
  // signature.
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
  expectGroupMatchesSoloRuns(*Spec, Members);
}

TEST(FanOutTest, EpochGroupFiresBoundarySamplesOnEveryMember) {
  // Three epochs under the mark-sweep variant: two boundary collections,
  // each announced to every member's sampler. Members sample at
  // different cadences (one not at all) to show the samplers are
  // independent of each other.
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("jess");
  ASSERT_NE(Spec, nullptr);
  std::vector<workloads::RunOptions> Members(3);
  Members[0].Machine = machine("pentium4");
  Members[0].TimelineEvery = 500;
  Members[1].Machine = machine("athlonmp");
  Members[1].TimelineEvery = 1300;
  Members[2].Machine = machine("modern3l");
  for (workloads::RunOptions &M : Members) {
    M.Config = tinyConfig();
    M.Epochs = 3;
    M.GcVariant = vm::GcVariant::MarkSweep;
  }
  std::vector<workloads::RunResult> Group;
  expectGroupMatchesSoloRuns(*Spec, Members, &Group);
  ASSERT_EQ(Group.size(), Members.size());
  for (size_t K = 0; K != 2; ++K) {
    unsigned Boundaries = 0;
    for (const obs::TimelineSample &S : Group[K].Timeline)
      Boundaries += S.Boundary;
    EXPECT_EQ(Boundaries, 2u) << "member " << K;
    EXPECT_EQ(Group[K].Epochs, 3u);
    EXPECT_GE(Group[K].GcCollections, 2u);
  }
}

} // namespace
