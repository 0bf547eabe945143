//===- tests/harness_test.cpp - Parallel experiment driver ----------------===//
//
// The driver's contract: a plan expands in a deterministic order, runs on
// any number of workers, and yields bit-identical per-cell simulator
// statistics regardless of the worker count; correctness failures
// (workload self-checks, baseline mismatches) surface as recorded
// failures rather than stderr-only warnings.
//
//===----------------------------------------------------------------------===//

#include "ExpectSameRun.h"
#include "harness/Experiment.h"
#include "harness/JsonReader.h"
#include "harness/JsonWriter.h"
#include "harness/ReportDiff.h"
#include "harness/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <set>
#include <sstream>

using namespace spf;
using namespace spf::harness;
using namespace spf::workloads;

namespace {

// -- ThreadPool ------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryTask) {
  ThreadPool Pool(4);
  std::atomic<unsigned> Count{0};
  for (unsigned I = 0; I != 100; ++I)
    Pool.async([&Count] { Count.fetch_add(1, std::memory_order_relaxed); });
  Pool.wait();
  EXPECT_EQ(Count.load(), 100u);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool Pool(2);
  std::atomic<unsigned> Count{0};
  Pool.async([&Count] { Count.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Count.load(), 1u);
  // A second batch after a completed wait must work too.
  for (unsigned I = 0; I != 10; ++I)
    Pool.async([&Count] { Count.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Count.load(), 11u);
}

TEST(ThreadPoolTest, WaitOnEmptyPoolReturns) {
  ThreadPool Pool(3);
  Pool.wait(); // Nothing queued: must not block.
  EXPECT_EQ(Pool.threadCount(), 3u);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.threadCount(), 1u);
  std::atomic<bool> Ran{false};
  Pool.async([&Ran] { Ran = true; });
  Pool.wait();
  EXPECT_TRUE(Ran.load());
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<unsigned> Count{0};
  {
    ThreadPool Pool(2);
    for (unsigned I = 0; I != 50; ++I)
      Pool.async([&Count] { Count.fetch_add(1); });
    // No wait(): the destructor must finish the queue before joining.
  }
  EXPECT_EQ(Count.load(), 50u);
}

/// Regression test for the exception-safety bug: a throwing task used to
/// leak its ActiveTasks increment (deadlocking wait()) and kill the
/// worker via std::terminate. The pool must absorb the throw, count it,
/// and stay fully usable.
TEST(ThreadPoolTest, ThrowingTaskDoesNotWedgeThePool) {
  ThreadPool Pool(2);
  std::atomic<unsigned> Count{0};
  for (unsigned I = 0; I != 20; ++I) {
    Pool.async([&Count, I] {
      if (I % 4 == 0)
        throw std::runtime_error("task blew up");
      Count.fetch_add(1, std::memory_order_relaxed);
    });
  }
  Pool.wait(); // Must return despite 5 of the 20 tasks throwing.
  EXPECT_EQ(Count.load(), 15u);
  EXPECT_EQ(Pool.uncaughtExceptions(), 5u);

  // The pool remains usable after the throws: same workers, new batch.
  for (unsigned I = 0; I != 10; ++I)
    Pool.async([&Count] { Count.fetch_add(1, std::memory_order_relaxed); });
  Pool.wait();
  EXPECT_EQ(Count.load(), 25u);
  EXPECT_EQ(Pool.uncaughtExceptions(), 5u);
}

TEST(ThreadPoolTest, NonExceptionThrowIsAbsorbedToo) {
  ThreadPool Pool(1);
  std::atomic<bool> Ran{false};
  Pool.async([] { throw 42; }); // Not derived from std::exception.
  Pool.async([&Ran] { Ran = true; });
  Pool.wait();
  EXPECT_TRUE(Ran.load());
  EXPECT_EQ(Pool.uncaughtExceptions(), 1u);
}

TEST(DefaultJobsTest, HonorsSpfJobsWhenPositive) {
  const char *Old = std::getenv("SPF_JOBS");
  std::string Saved = Old ? Old : "";

  setenv("SPF_JOBS", "3", 1);
  EXPECT_EQ(defaultJobs(), 3u);
  setenv("SPF_JOBS", "1", 1);
  EXPECT_EQ(defaultJobs(), 1u);
  // Garbage and non-positive values fall back to a sane default.
  setenv("SPF_JOBS", "0", 1);
  EXPECT_GE(defaultJobs(), 1u);
  setenv("SPF_JOBS", "banana", 1);
  EXPECT_GE(defaultJobs(), 1u);
  unsetenv("SPF_JOBS");
  EXPECT_GE(defaultJobs(), 1u);

  if (Old)
    setenv("SPF_JOBS", Saved.c_str(), 1);
}

// -- Plan expansion --------------------------------------------------------

TEST(ExperimentPlanTest, SweepExpandsMachineMajorWithBaselineChecks) {
  ExperimentPlan Plan;
  std::vector<const WorkloadSpec *> Specs = {findWorkload("jess"),
                                             findWorkload("db")};
  ASSERT_TRUE(Specs[0] && Specs[1]);
  std::vector<Algorithm> Algos = {Algorithm::Baseline, Algorithm::Inter,
                                  Algorithm::InterIntra};
  std::vector<unsigned> Idx = Plan.addSweep(
      Specs, Algos,
      {(*sim::MachineConfig::byName("pentium4")), (*sim::MachineConfig::byName("athlonmp"))},
      WorkloadConfig(), "g");

  ASSERT_EQ(Plan.size(), 12u); // 2 machines x 2 workloads x 3 algorithms.
  ASSERT_EQ(Idx.size(), 12u);
  for (unsigned I = 0; I != 12; ++I)
    EXPECT_EQ(Idx[I], I); // Fresh plan: indices are 0..11 in order.

  // Machine-major, then workload, then algorithm.
  const std::vector<ExperimentCell> &C = Plan.cells();
  EXPECT_EQ(C[0].Spec->Name, "jess");
  EXPECT_EQ(C[0].Opt.Algo, Algorithm::Baseline);
  EXPECT_EQ(C[2].Spec->Name, "jess");
  EXPECT_EQ(C[2].Opt.Algo, Algorithm::InterIntra);
  EXPECT_EQ(C[3].Spec->Name, "db");
  EXPECT_EQ(C[6].Opt.Machine.Name, sim::MachineConfig::byName("athlonmp")->Name);

  // Every non-baseline cell checks against its own workload's baseline on
  // the same machine.
  EXPECT_FALSE(C[0].CheckAgainst.has_value());
  EXPECT_EQ(C[1].CheckAgainst, std::optional<unsigned>(0));
  EXPECT_EQ(C[2].CheckAgainst, std::optional<unsigned>(0));
  EXPECT_EQ(C[4].CheckAgainst, std::optional<unsigned>(3));
  EXPECT_EQ(C[7].CheckAgainst, std::optional<unsigned>(6));
  EXPECT_EQ(C[11].CheckAgainst, std::optional<unsigned>(9));
}

TEST(ExperimentPlanTest, NoBaselineMeansNoChecks) {
  ExperimentPlan Plan;
  Plan.addSweep({findWorkload("jess")}, {Algorithm::Inter,
                                         Algorithm::InterIntra},
                {(*sim::MachineConfig::byName("pentium4"))}, WorkloadConfig());
  for (const ExperimentCell &C : Plan.cells())
    EXPECT_FALSE(C.CheckAgainst.has_value());
}

TEST(ExperimentPlanTest, EmptyPlanRunsToAnOkResult) {
  ExperimentPlan Plan;
  ExperimentResult R = runPlan(Plan, 4);
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.Cells.empty());
}

// -- Parallel == serial, bit for bit ---------------------------------------

WorkloadConfig tinyConfig() {
  WorkloadConfig Cfg;
  Cfg.Scale = 0.05;
  return Cfg;
}

/// The acceptance criterion for the parallel driver: the same plan on 1
/// and on 8 workers yields bit-identical per-cell simulator statistics.
/// (JIT wall-clock times are real timer readings and are exempt.)
TEST(RunPlanTest, EightWorkersMatchOneWorkerBitForBit) {
  ExperimentPlan Plan;
  std::vector<const WorkloadSpec *> Specs = {
      findWorkload("jess"), findWorkload("db"), findWorkload("Euler")};
  ASSERT_TRUE(Specs[0] && Specs[1] && Specs[2]);
  Plan.addSweep(
      Specs, {Algorithm::Baseline, Algorithm::Inter, Algorithm::InterIntra},
      {(*sim::MachineConfig::byName("pentium4")), (*sim::MachineConfig::byName("athlonmp"))},
      tinyConfig(), "determinism");
  ASSERT_EQ(Plan.size(), 18u);

  ExperimentResult Serial = runPlan(Plan, 1);
  ExperimentResult Parallel = runPlan(Plan, 8);
  EXPECT_TRUE(Serial.ok());
  EXPECT_TRUE(Parallel.ok());
  ASSERT_EQ(Serial.Cells.size(), Parallel.Cells.size());

  for (unsigned I = 0; I != Plan.size(); ++I) {
    const RunResult &S = Serial.run(I);
    const RunResult &P = Parallel.run(I);
    std::string Tag = Plan.cells()[I].Spec->Name + std::string(" cell ") +
                      std::to_string(I);
    EXPECT_TRUE(Serial.Cells[I].Ran && Parallel.Cells[I].Ran) << Tag;
    EXPECT_EQ(S.CompiledCycles, P.CompiledCycles) << Tag;
    EXPECT_EQ(S.Retired, P.Retired) << Tag;
    EXPECT_EQ(S.ReturnValue, P.ReturnValue) << Tag;
    EXPECT_EQ(S.SelfCheckOk, P.SelfCheckOk) << Tag;
    EXPECT_EQ(S.Mem.Loads, P.Mem.Loads) << Tag;
    EXPECT_EQ(S.Mem.Stores, P.Mem.Stores) << Tag;
    EXPECT_EQ(S.Mem.L1LoadMisses, P.Mem.L1LoadMisses) << Tag;
    EXPECT_EQ(S.Mem.L2LoadMisses, P.Mem.L2LoadMisses) << Tag;
    EXPECT_EQ(S.Mem.DtlbLoadMisses, P.Mem.DtlbLoadMisses) << Tag;
    EXPECT_EQ(S.Mem.SwPrefetchesIssued, P.Mem.SwPrefetchesIssued) << Tag;
    EXPECT_EQ(S.Mem.SwPrefetchesCancelled, P.Mem.SwPrefetchesCancelled)
        << Tag;
    EXPECT_EQ(S.Mem.GuardedLoads, P.Mem.GuardedLoads) << Tag;
    EXPECT_EQ(S.Exec.Retired, P.Exec.Retired) << Tag;
    EXPECT_EQ(S.Exec.PrefetchRelated, P.Exec.PrefetchRelated) << Tag;
    EXPECT_EQ(S.Exec.Calls, P.Exec.Calls) << Tag;
    EXPECT_EQ(S.Exec.Allocations, P.Exec.Allocations) << Tag;
    EXPECT_EQ(S.Exec.GcRuns, P.Exec.GcRuns) << Tag;
    EXPECT_EQ(S.Prefetch.CodeGen.SpecLoads, P.Prefetch.CodeGen.SpecLoads)
        << Tag;
    EXPECT_EQ(S.Prefetch.CodeGen.Prefetches, P.Prefetch.CodeGen.Prefetches)
        << Tag;
    // Which cells share an execution is fixed by the plan, not by the
    // schedule.
    EXPECT_EQ(S.Replayed, P.Replayed) << Tag;
    EXPECT_EQ(S.Mem, P.Mem) << Tag;
    EXPECT_EQ(S.Acct, P.Acct) << Tag;
    EXPECT_EQ(S.Sites, P.Sites) << Tag;
  }
}

// -- Execution sharing -------------------------------------------------------

/// The figures plan: every Table 3 workload x {BASELINE, INTER,
/// INTER+INTRA} on the Pentium 4, then on the Athlon MP.
ExperimentPlan figuresPlan() {
  ExperimentPlan Plan;
  std::vector<const WorkloadSpec *> Specs;
  for (const WorkloadSpec &S : allWorkloads())
    Specs.push_back(&S);
  for (const char *M : {"pentium4", "athlonmp"})
    Plan.addSweep(Specs,
                  {Algorithm::Baseline, Algorithm::Inter,
                   Algorithm::InterIntra},
                  {*sim::MachineConfig::byName(M)}, tinyConfig(), M);
  return Plan;
}

TEST(RunPlanSharingTest, FiguresPlanMatchesSoloRunsOnEveryCell) {
  ExperimentPlan Plan = figuresPlan();
  ASSERT_EQ(Plan.size(), 72u);

  // A cell shares iff an earlier cell of its workload ran: one execution
  // per workload, 12 in all.
  std::vector<RunResult> Solo;
  for (const ExperimentCell &C : Plan.cells())
    Solo.push_back(runWorkload(*C.Spec, C.Opt));

  for (unsigned Jobs : {1u, 8u}) {
    ExperimentResult R = runPlan(Plan, Jobs);
    EXPECT_TRUE(R.ok()) << (R.Failures.empty() ? "" : R.Failures[0]);
    unsigned Interpreted = 0;
    for (unsigned I = 0; I != Plan.size(); ++I) {
      const RunResult &G = R.run(I);
      std::string Tag = Plan.cells()[I].Spec->Name + " cell " +
                        std::to_string(I) + " jobs " + std::to_string(Jobs);
      ASSERT_TRUE(R.Cells[I].Ran) << Tag;
      bool Follows = std::any_of(
          Plan.cells().begin(), Plan.cells().begin() + I,
          [&](const ExperimentCell &C) {
            return C.Spec == Plan.cells()[I].Spec;
          });
      EXPECT_EQ(G.Replayed, Follows) << Tag;
      EXPECT_EQ(G.InterpretUs == 0, G.Replayed) << Tag;
      Interpreted += !G.Replayed;
      expectSameRun(G, Solo[I], Tag, /*WithReplayed=*/false);
    }
    EXPECT_EQ(Interpreted, 12u) << "jobs " << Jobs;
  }
}

TEST(RunPlanSharingTest, BaselineSharingAnInterProgramKeepsItsOwnCompile) {
  // db's INTER pass visits loops but inserts nothing at this scale, so
  // INTER and BASELINE share owner 0 and one simulator. INTER leads; the
  // BASELINE follower must still report its own compile: no loops, no
  // decisions.
  const WorkloadSpec *Db = findWorkload("db");
  ExperimentPlan Plan;
  Plan.addSweep({Db}, {Algorithm::Inter, Algorithm::Baseline},
                {*sim::MachineConfig::byName("pentium4")}, tinyConfig(),
                "own-compile");
  std::vector<RunOptions> Members{Plan.cells()[0].Opt, Plan.cells()[1].Opt};
  ASSERT_EQ(buildSharedWorld(*Db, Members).OwnerOf,
            (std::vector<unsigned>{0, 0}));

  ExperimentResult R = runPlan(Plan, 1);
  ASSERT_TRUE(R.ok()) << R.Failures[0];
  const RunResult &Inter = R.run(0);
  const RunResult &Base = R.run(1);
  ASSERT_FALSE(Inter.Replayed);
  ASSERT_TRUE(Base.Replayed);

  RunResult SoloInter = runWorkload(*Db, Plan.cells()[0].Opt);
  EXPECT_GT(Inter.Prefetch.LoopsVisited, 0u);
  EXPECT_EQ(Inter.Prefetch.LoopsVisited, SoloInter.Prefetch.LoopsVisited);
  EXPECT_EQ(Inter.Decisions.size(), SoloInter.Decisions.size());

  EXPECT_EQ(Base.Prefetch.LoopsVisited, 0u);
  EXPECT_EQ(Base.Prefetch.CodeGen.Prefetches, 0u);
  EXPECT_EQ(Base.Prefetch.CodeGen.SpecLoads, 0u);
  EXPECT_TRUE(Base.Decisions.empty());
  // The simulated side is the shared execution's, on BASELINE's machine.
  EXPECT_EQ(Base.Mem, runWorkload(*Db, Plan.cells()[1].Opt).Mem);
}

TEST(RunPlanSharingTest, TunedCellGetsItsOwnOwnerExactlyWhenItsCodeDiffers) {
  // A TunePass cell shares its workload's execution like any other, and
  // its code joins the union program under an owner of its own exactly
  // when the tuning changes it. db's INTER+INTRA inserts prefetches at
  // this scale, so a longer scheduling distance moves their
  // displacements; compress's inserts none, so the same tuning changes
  // nothing there.
  auto Distance = [](unsigned D) {
    return [D](core::PrefetchPassOptions &P) {
      P.Planner.ScheduleDistance = D;
    };
  };
  ExperimentPlan Plan;
  for (const char *Name : {"db", "compress"}) {
    for (unsigned D : {0u, 1u, 4u}) {
      ExperimentCell C;
      C.Group = Name;
      C.Spec = findWorkload(Name);
      C.Opt.Algo = Algorithm::InterIntra;
      C.Opt.Config = tinyConfig();
      if (D)
        C.Opt.TunePass = Distance(D); // 1 is the default: a no-op.
      Plan.add(std::move(C));
    }
  }
  for (unsigned First : {0u, 3u}) {
    std::vector<RunOptions> Members;
    for (unsigned I = First; I != First + 3; ++I)
      Members.push_back(Plan.cells()[I].Opt);
    std::vector<unsigned> Want = First ? std::vector<unsigned>{0, 0, 0}
                                       : std::vector<unsigned>{1, 1, 2};
    EXPECT_EQ(buildSharedWorld(*Plan.cells()[First].Spec, Members).OwnerOf,
              Want)
        << First;
  }

  ExperimentResult R = runPlan(Plan, 2);
  ASSERT_TRUE(R.ok()) << R.Failures[0];
  const bool WantReplayed[] = {false, true, true, false, true, true};
  for (unsigned I = 0; I != Plan.size(); ++I) {
    EXPECT_EQ(R.run(I).Replayed, WantReplayed[I]) << I;
    RunResult Solo = runWorkload(*Plan.cells()[I].Spec, Plan.cells()[I].Opt);
    expectSameRun(R.run(I), Solo, "cell " + std::to_string(I),
                  /*WithReplayed=*/false);
  }
}

TEST(RunPlanSharingTest, EpochFacetsKeepExecutionsApartGovernedCellsRide) {
  // One program throughout (jess BASELINE), so only the run facets decide:
  // cells share only with cells of equal epochs and phase change. GC
  // variants share: the execution splits by variant at each epoch
  // boundary. Governed cells share too while their governor does not act
  // (BASELINE has no prefetch site to judge).
  const sim::MachineConfig P4 = *sim::MachineConfig::byName("pentium4");
  const sim::MachineConfig Athlon = *sim::MachineConfig::byName("athlonmp");
  struct Facets {
    const sim::MachineConfig *M;
    unsigned Epochs;
    vm::GcVariant Gc;
    bool Phase;
    bool Governor;
    bool WantReplayed;
  };
  const vm::GcVariant Compact = vm::GcVariant::SlidingCompact;
  const vm::GcVariant MarkSweep = vm::GcVariant::MarkSweep;
  const Facets Cells[] = {
      {&P4, 1, Compact, false, false, false},
      {&Athlon, 1, Compact, false, false, true},
      {&P4, 3, Compact, false, false, false},
      {&P4, 3, MarkSweep, false, false, true},
      {&P4, 3, MarkSweep, true, false, false},
      {&Athlon, 3, MarkSweep, true, false, true},
      {&P4, 3, Compact, false, true, true},
      {&Athlon, 3, Compact, false, true, true},
  };
  ExperimentPlan Plan;
  for (const Facets &F : Cells) {
    ExperimentCell C;
    C.Spec = findWorkload("jess");
    C.Opt.Machine = *F.M;
    C.Opt.Config = tinyConfig();
    C.Opt.Epochs = F.Epochs;
    C.Opt.GcVariant = F.Gc;
    C.Opt.PhaseChange = F.Phase;
    C.Opt.Governor = F.Governor;
    Plan.add(std::move(C));
  }
  ExperimentResult R = runPlan(Plan, 1);
  ASSERT_TRUE(R.ok()) << R.Failures[0];
  for (unsigned I = 0; I != Plan.size(); ++I)
    EXPECT_EQ(R.run(I).Replayed, Cells[I].WantReplayed) << I;
  for (unsigned I : {3u, 5u, 6u, 7u}) {
    const RunResult Solo = runWorkload(*Plan.cells()[I].Spec,
                                       Plan.cells()[I].Opt);
    EXPECT_EQ(R.run(I).Mem, Solo.Mem) << I;
    EXPECT_EQ(R.run(I).Acct, Solo.Acct) << I;
    EXPECT_EQ(R.run(I).Sites, Solo.Sites) << I;
    EXPECT_EQ(R.run(I).Retired, Solo.Retired) << I;
    EXPECT_EQ(R.run(I).GcCollections, Solo.GcCollections) << I;
    EXPECT_EQ(R.run(I).GovernorQuarantined, Solo.GovernorQuarantined) << I;
    EXPECT_EQ(R.run(I).GovernorReinspections, Solo.GovernorReinspections)
        << I;
  }
}

TEST(RunPlanSharingTest, GovernedCellAloneInItsGroupReportsItsReJit) {
  // db INTER+INTRA under address-shuffle quarantines two sites at the
  // first boundary and re-inspects. It shares its BASELINE partner's
  // execution until then, leaves, and re-runs as a group of one: it must
  // report the prefetch pass and decisions of that run, re-JIT included.
  ExperimentPlan Plan;
  for (workloads::Algorithm A :
       {workloads::Algorithm::Baseline, workloads::Algorithm::InterIntra}) {
    ExperimentCell C;
    C.Spec = findWorkload("db");
    C.Opt.Algo = A;
    C.Opt.Config = tinyConfig();
    C.Opt.Epochs = 3;
    C.Opt.GcVariant = vm::GcVariant::AddressShuffle;
    C.Opt.Governor = A == workloads::Algorithm::InterIntra;
    Plan.add(std::move(C));
  }
  ExperimentResult R = runPlan(Plan, 1);
  ASSERT_TRUE(R.ok()) << R.Failures[0];
  const RunResult &Gov = R.run(1);
  const RunResult Solo = runWorkload(*Plan.cells()[1].Spec,
                                     Plan.cells()[1].Opt);
  ASSERT_EQ(Solo.GovernorReinspections, 1u);
  EXPECT_FALSE(Gov.Replayed);
  EXPECT_EQ(Gov.GovernorReinspections, 1u);
  EXPECT_EQ(Gov.GovernorQuarantined, Solo.GovernorQuarantined);
  EXPECT_EQ(Gov.Prefetch.CodeGen.Prefetches, Solo.Prefetch.CodeGen.Prefetches);
  EXPECT_EQ(Gov.Prefetch.CodeGen.SpecLoads, Solo.Prefetch.CodeGen.SpecLoads);
  EXPECT_EQ(Gov.Prefetch.LoopsVisited, Solo.Prefetch.LoopsVisited);
  EXPECT_EQ(Gov.Decisions, Solo.Decisions);
  EXPECT_EQ(Gov.Mem, Solo.Mem);
  EXPECT_EQ(Gov.Sites, Solo.Sites);
}

TEST(RunPlanSharingTest, LeaversRunAloneAtAnyJobCount) {
  // db INTER+INTRA under address-shuffle, ungoverned then governed: one
  // program, so one group, which the governed cell leaves at the first
  // boundary. On 4 workers its solo re-run is a task of its own, spawned
  // from the group's task; every result matches the serial run's.
  ExperimentPlan Plan;
  for (bool Governor : {false, true}) {
    ExperimentCell C;
    C.Spec = findWorkload("db");
    C.Opt.Algo = workloads::Algorithm::InterIntra;
    C.Opt.Config = tinyConfig();
    C.Opt.Epochs = 3;
    C.Opt.GcVariant = vm::GcVariant::AddressShuffle;
    C.Opt.Governor = Governor;
    Plan.add(std::move(C));
  }
  const ExperimentResult Serial = runPlan(Plan, 1);
  const ExperimentResult Parallel = runPlan(Plan, 4);
  ASSERT_TRUE(Serial.ok()) << Serial.Failures[0];
  ASSERT_TRUE(Parallel.ok()) << Parallel.Failures[0];
  EXPECT_EQ(Serial.run(1).GovernorReinspections, 1u);
  for (unsigned I = 0; I != Plan.size(); ++I) {
    const RunResult &A = Serial.run(I), &B = Parallel.run(I);
    EXPECT_FALSE(A.Replayed) << I; // The lead, and the leaver.
    EXPECT_EQ(B.Replayed, A.Replayed) << I;
    EXPECT_EQ(B.Mem, A.Mem) << I;
    EXPECT_EQ(B.Sites, A.Sites) << I;
    EXPECT_EQ(B.Decisions, A.Decisions) << I;
    EXPECT_EQ(B.GovernorQuarantined, A.GovernorQuarantined) << I;
    EXPECT_EQ(B.GovernorReinspections, A.GovernorReinspections) << I;
  }
  const RunResult Solo = runWorkload(*Plan.cells()[1].Spec,
                                     Plan.cells()[1].Opt);
  EXPECT_EQ(Serial.run(1).Mem, Solo.Mem);
  EXPECT_EQ(Serial.run(1).Decisions, Solo.Decisions);
}

TEST(RunPlanSharingTest, BranchTasksMatchTheSerialRun) {
  // bench/adaptation's grid at 3 epochs: one group per workload, which
  // splits by GC variant at each boundary and, on db, loses its governed
  // address-shuffle cell. On 4 workers each branch and the leaver are
  // tasks of their own; every field of every cell, Replayed included,
  // matches the serial run.
  const sim::MachineConfig P4 = *sim::MachineConfig::byName("pentium4");
  ExperimentPlan Plan;
  auto Add = [&](const char *Name, Algorithm A, vm::GcVariant V, bool Gov) {
    ExperimentCell C;
    C.Spec = findWorkload(Name);
    C.Opt.Machine = P4;
    C.Opt.Algo = A;
    C.Opt.Config = tinyConfig();
    C.Opt.Epochs = 3;
    C.Opt.GcVariant = V;
    C.Opt.Governor = Gov;
    Plan.add(std::move(C));
  };
  for (const char *Name : {"db", "jack", "MonteCarlo"})
    Add(Name, Algorithm::InterIntra, vm::GcVariant::SlidingCompact, false);
  for (vm::GcVariant V : {vm::GcVariant::MarkSweep,
                          vm::GcVariant::AddressShuffle,
                          vm::GcVariant::PromotionOrder})
    for (const char *Name : {"db", "jack", "MonteCarlo"}) {
      Add(Name, Algorithm::Baseline, V, false);
      Add(Name, Algorithm::InterIntra, V, false);
      Add(Name, Algorithm::InterIntra, V, true);
    }
  const ExperimentResult Serial = runPlan(Plan, 1);
  const ExperimentResult Parallel = runPlan(Plan, 4);
  ASSERT_TRUE(Serial.ok()) << Serial.Failures[0];
  ASSERT_TRUE(Parallel.ok()) << Parallel.Failures[0];
  unsigned Interpreted = 0;
  for (unsigned I = 0; I != Plan.size(); ++I) {
    expectSameRun(Parallel.run(I), Serial.run(I), "cell " + std::to_string(I),
                  /*WithReplayed=*/true);
    Interpreted += !Serial.run(I).Replayed;
  }
  EXPECT_EQ(Interpreted, 4u); // Three groups and db's leaver.
}

// -- Failure propagation ---------------------------------------------------

/// A copy of \p Name whose built workload expects a corrupted return
/// value, so its self-check must fail.
WorkloadSpec corruptedSpec(const char *Name) {
  const WorkloadSpec *Orig = findWorkload(Name);
  EXPECT_NE(Orig, nullptr);
  WorkloadSpec Bad = *Orig;
  Bad.Name = std::string(Name) + "<corrupted>";
  std::function<BuiltWorkload(const WorkloadConfig &)> Build = Bad.Build;
  Bad.Build = [Build](const WorkloadConfig &Cfg) {
    BuiltWorkload W = Build(Cfg);
    W.Expected = W.Expected ? *W.Expected + 1 : 1;
    return W;
  };
  return Bad;
}

TEST(RunPlanTest, SelfCheckFailureIsRecorded) {
  WorkloadSpec Bad = corruptedSpec("jess");
  ExperimentPlan Plan;
  ExperimentCell Cell;
  Cell.Group = "fail";
  Cell.Spec = &Bad;
  Cell.Opt.Config = tinyConfig();
  Plan.add(std::move(Cell));

  ExperimentResult R = runPlan(Plan, 2);
  EXPECT_FALSE(R.ok());
  ASSERT_EQ(R.Failures.size(), 1u);
  EXPECT_NE(R.Failures[0].find("jess<corrupted>"), std::string::npos);
  EXPECT_NE(R.Failures[0].find("self-check failed"), std::string::npos);
  EXPECT_FALSE(R.run(0).SelfCheckOk);
}

TEST(RunPlanTest, BaselineMismatchIsRecorded) {
  // Two different workloads with a CheckAgainst link between them: their
  // return values differ, so the driver must flag the second cell.
  ExperimentPlan Plan;
  ExperimentCell A;
  A.Spec = findWorkload("compress");
  A.Opt.Config = tinyConfig();
  unsigned AIdx = Plan.add(std::move(A));
  ExperimentCell B;
  B.Spec = findWorkload("jess");
  B.Opt.Config = tinyConfig();
  B.CheckAgainst = AIdx;
  Plan.add(std::move(B));

  ExperimentResult R = runPlan(Plan, 2);
  EXPECT_FALSE(R.ok());
  ASSERT_EQ(R.Failures.size(), 1u);
  EXPECT_NE(R.Failures[0].find("different result"), std::string::npos);
}

// -- The stop hook -----------------------------------------------------------

TEST(RunPlanTest, ExternalStopLeavesLaterGroupsUnrunAndFailed) {
  // Two groups: the jess BASELINE pair, then the db BASELINE and
  // INTER+INTRA pair. The hook is polled once per group before it runs,
  // so returning true on the 2nd poll runs exactly the first.
  ExperimentPlan Plan;
  Plan.addSweep({findWorkload("jess")}, {Algorithm::Baseline},
                {*sim::MachineConfig::byName("pentium4"),
                 *sim::MachineConfig::byName("athlonmp")},
                tinyConfig(), "stop");
  Plan.addSweep({findWorkload("db")},
                {Algorithm::Baseline, Algorithm::InterIntra},
                {*sim::MachineConfig::byName("pentium4")}, tinyConfig(),
                "stop");
  ASSERT_EQ(Plan.size(), 4u);

  RunPlanOptions Opts;
  unsigned Polls = 0;
  Opts.Governor.ExternalStop = [&Polls] { return ++Polls == 2; };
  ExperimentResult R = runPlan(Plan, 1, Opts);

  EXPECT_EQ(Polls, 2u); // Never polled again once it fired.
  EXPECT_TRUE(R.Cells[0].Ran);
  EXPECT_TRUE(R.Cells[1].Ran);
  EXPECT_TRUE(R.run(1).Replayed);
  EXPECT_FALSE(R.Cells[2].Ran);
  EXPECT_FALSE(R.Cells[3].Ran);
  EXPECT_FALSE(R.ok());
  ASSERT_EQ(R.Failures.size(), 2u);
  ASSERT_EQ(R.Quarantine.size(), 2u);
  EXPECT_EQ(R.Quarantine[0].CellIndex, 2u);
  EXPECT_EQ(R.Quarantine[1].CellIndex, 3u);
  EXPECT_EQ(R.Quarantine[0].Error, "stopped before it ran");
}

// -- JSON report -----------------------------------------------------------

TEST(JsonReportTest, ReportCarriesTheCellStats) {
  ExperimentPlan Plan;
  Plan.addSweep({findWorkload("jess")},
                {Algorithm::Baseline, Algorithm::InterIntra},
                {(*sim::MachineConfig::byName("pentium4"))}, tinyConfig(), "json");
  ExperimentResult R = runPlan(Plan, 2);
  ASSERT_TRUE(R.ok());

  std::ostringstream OS;
  writeJsonReport(OS, Plan, R, 0.05, 2);
  std::string S = OS.str();

  EXPECT_NE(S.find("\"schema\":\"spf-sweep-v4\""), std::string::npos);
  EXPECT_NE(S.find("\"jobs\":2"), std::string::npos);
  EXPECT_NE(S.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(S.find("\"group\":\"json\""), std::string::npos);
  EXPECT_NE(S.find("\"workload\":\"jess\""), std::string::npos);
  EXPECT_NE(S.find("\"algorithm\":\"INTER+INTRA\""), std::string::npos);
  EXPECT_NE(S.find("\"ran\":true"), std::string::npos);
  EXPECT_NE(S.find("\"guarded_load_faults\":"), std::string::npos);
  EXPECT_NE(S.find("\"failures\":[]"), std::string::npos);
  // Clean run: nothing quarantined.
  EXPECT_NE(S.find("\"quarantine\":[]"), std::string::npos);
  // No retry, isolation, journal, interruption, stats or timeline keys.
  for (const char *Gone : {"\"attempts\"", "\"isolated\"", "\"journal\"",
                           "\"interrupted\"", "\"cells_skipped\"",
                           "\"stats\"", "\"timeline\""})
    EXPECT_EQ(S.find(Gone), std::string::npos) << Gone;
  // The recorded cycles round-trip exactly.
  EXPECT_NE(S.find("\"cycles\":" + std::to_string(R.run(0).CompiledCycles)),
            std::string::npos);

  // Every ran cell carries its cycle attribution: a breakdown summing to
  // its cycles, and top stall sites in descending stall order.
  std::string Error;
  std::unique_ptr<JsonValue> Doc = JsonValue::parse(S, &Error);
  ASSERT_TRUE(Doc) << Error;
  EXPECT_TRUE(validateReport(*Doc, &Error)) << Error;
  const JsonValue &Cells = Doc->get("cells");
  ASSERT_EQ(Cells.array().size(), 2u);
  for (const JsonValue &C : Cells.array()) {
    ASSERT_TRUE(C.getBool("ran"));
    const JsonValue &B = C.get("cycle_breakdown");
    uint64_t Sum = 0;
    for (const auto &[Key, V] : B.objectMembers())
      if (Key != "total")
        Sum += B.getU64(Key);
    EXPECT_EQ(Sum, C.getU64("cycles"));
    EXPECT_EQ(B.getU64("total"), C.getU64("cycles"));
    const JsonValue &Top = C.get("top_sites");
    ASSERT_EQ(Top.kind(), JsonValue::Kind::Array);
    EXPECT_FALSE(Top.array().empty());
    for (size_t I = 1; I < Top.array().size(); ++I)
      EXPECT_GE(Top.array()[I - 1].getU64("stall_cycles"),
                Top.array()[I].getU64("stall_cycles"));
  }
}

TEST(JsonWriterTest, EscapesAndNests) {
  std::ostringstream OS;
  {
    JsonWriter J(OS);
    J.beginObject();
    J.key("s").value("a\"b\\c\n");
    J.key("n").value(static_cast<uint64_t>(42));
    J.key("arr").beginArray();
    J.value(true);
    J.value(false);
    J.endArray();
    J.endObject();
  }
  EXPECT_EQ(OS.str(), "{\"s\":\"a\\\"b\\\\c\\n\",\"n\":42,"
                      "\"arr\":[true,false]}");
}

/// Pathological strings (a quarantined cell's error message could carry
/// anything an exception what() produces): every control character must
/// be escaped so the report stays machine-parseable.
TEST(JsonWriterTest, EscapesEveryControlCharacter) {
  std::ostringstream OS;
  {
    JsonWriter J(OS);
    std::string Nasty = "a\rb\x01" "c\x1f"; // Split: \x is greedy.
    Nasty.push_back('\0'); // Embedded NUL must be escaped, not truncate.
    Nasty += "d\tz";
    J.beginObject();
    J.key("err").value(Nasty);
    J.endObject();
  }
  EXPECT_EQ(OS.str(),
            "{\"err\":\"a\\u000db\\u0001c\\u001f\\u0000d\\tz\"}");

  // No raw byte below 0x20 may survive in any output.
  for (char C : OS.str())
    EXPECT_GE(static_cast<unsigned char>(C), 0x20u);
}

} // namespace
