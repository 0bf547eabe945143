//===- tests/fault_test.cpp - Failure containment and chaos injection -----===//
//
// Coverage for the failure-containment layer: the seeded fault injector
// itself, graceful degradation of inspection/planning, the guarded-load
// fault path, the harness's quarantine/timeout handling, and strict
// parsing of SPF_* knobs and bench flags.
// The overarching invariant: no injected fault may change a simulated
// program's result or take the process down.
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchCommon.h"
#include "TestKernels.h"
#include "core/ObjectInspector.h"
#include "core/PrefetchPass.h"
#include "core/PrefetchPlanner.h"
#include "core/StrideAnalysis.h"
#include "harness/Experiment.h"
#include "sim/MemorySystem.h"
#include "support/Env.h"
#include "support/FaultInjection.h"
#include "support/Status.h"
#include "workloads/KernelBuilder.h"
#include "workloads/Runner.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

using namespace spf;
using namespace spf::core;
using namespace spf::support;
using namespace spf::testkernels;

namespace {

/// Saves and restores one environment variable around a test body.
struct ScopedEnv {
  std::string Name;
  bool HadOld;
  std::string Old;

  ScopedEnv(const char *Name, const char *Value) : Name(Name) {
    const char *O = std::getenv(Name);
    HadOld = O != nullptr;
    Old = O ? O : "";
    if (Value)
      setenv(Name, Value, 1);
    else
      unsetenv(Name);
  }
  ~ScopedEnv() {
    if (HadOld)
      setenv(Name.c_str(), Old.c_str(), 1);
    else
      unsetenv(Name.c_str());
  }
};

// -- Configuration parsing -------------------------------------------------

TEST(FaultConfigTest, ParsesSingleSite) {
  auto C = FaultConfig::parse("inspect-read:0.25:7");
  ASSERT_TRUE(C.has_value());
  EXPECT_TRUE(C->anyEnabled());
  const auto &S = C->site(FaultSite::InspectHeapRead);
  EXPECT_TRUE(S.Enabled);
  EXPECT_DOUBLE_EQ(S.Rate, 0.25);
  EXPECT_EQ(S.Seed, 7u);
  EXPECT_FALSE(C->site(FaultSite::Alloc).Enabled);
  EXPECT_FALSE(C->site(FaultSite::GuardAddr).Enabled);
}

TEST(FaultConfigTest, ParsesMultipleSites) {
  auto C = FaultConfig::parse("alloc:0.5:1,guard-addr:1:2");
  ASSERT_TRUE(C.has_value());
  EXPECT_TRUE(C->site(FaultSite::Alloc).Enabled);
  EXPECT_TRUE(C->site(FaultSite::GuardAddr).Enabled);
  EXPECT_DOUBLE_EQ(C->site(FaultSite::GuardAddr).Rate, 1.0);
  EXPECT_FALSE(C->site(FaultSite::InspectHeapRead).Enabled);
}

TEST(FaultConfigTest, AllEnablesEverySiteWithDistinctStreams) {
  auto C = FaultConfig::parse("all:0.1:42");
  ASSERT_TRUE(C.has_value());
  for (unsigned I = 0; I != NumFaultSites; ++I) {
    EXPECT_TRUE(C->Sites[I].Enabled) << "site " << I;
    EXPECT_DOUBLE_EQ(C->Sites[I].Rate, 0.1);
  }
  // Per-site seeds must differ, or every site would fire in lockstep.
  EXPECT_NE(C->site(FaultSite::InspectHeapRead).Seed,
            C->site(FaultSite::Alloc).Seed);
}

TEST(FaultConfigTest, RejectsMalformedSpecs) {
  std::string Err;
  EXPECT_FALSE(FaultConfig::parse("bogus-site:0.5:1", &Err).has_value());
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(FaultConfig::parse("alloc:1.5:1").has_value()); // Rate > 1.
  EXPECT_FALSE(FaultConfig::parse("alloc:-0.1:1").has_value());
  EXPECT_FALSE(FaultConfig::parse("alloc:0.5").has_value()); // No seed.
  EXPECT_FALSE(FaultConfig::parse("").has_value());
  EXPECT_FALSE(FaultConfig::parse("alloc:zero:1").has_value());
  // Only the three pass sites exist.
  for (const char *Gone : {"cell:0.5:1", "crash:0.5:1", "disk-write:0.5:1",
                           "disk-sync:0.5:1"})
    EXPECT_FALSE(FaultConfig::parse(Gone).has_value()) << Gone;
}

TEST(FaultConfigTest, FromEnvUnsetDisablesEverything) {
  ScopedEnv E("SPF_FAULTS", nullptr);
  FaultConfig C = FaultConfig::fromEnv();
  EXPECT_FALSE(C.anyEnabled());
}

// -- Fail-fast environment parsing -----------------------------------------
//
// A malformed knob must kill the process immediately with a clear message
// and exit code 2 (support::ConfigErrorExit) — a typo'd SPF_FAULTS that
// silently disables chaos mode would make a chaos CI job pass vacuously.

TEST(EnvFailFastDeathTest, MalformedSpfFaultsExitsWithConfigError) {
  ScopedEnv E("SPF_FAULTS", "not a spec");
  EXPECT_EXIT(FaultConfig::fromEnv(),
              ::testing::ExitedWithCode(support::ConfigErrorExit),
              "invalid SPF_FAULTS");
}

TEST(EnvFailFastDeathTest, NegativeSpfCellTimeoutExitsWithConfigError) {
  ScopedEnv E("SPF_CELL_TIMEOUT", "-3");
  EXPECT_EXIT(support::envDouble("SPF_CELL_TIMEOUT", 0.0, 0.0),
              ::testing::ExitedWithCode(support::ConfigErrorExit),
              "invalid SPF_CELL_TIMEOUT");
}

// Bench flags follow the same rule: a value that is not wholly an
// in-range integer exits 2 instead of silently meaning something else.
TEST(EnvFailFastDeathTest, NonNumericJobsFlagExitsWithConfigError) {
  const char *Argv[] = {"sweep", "--jobs", "abc"};
  EXPECT_EXIT(bench::jobsFromArgs(3, const_cast<char **>(Argv)),
              ::testing::ExitedWithCode(support::ConfigErrorExit),
              "invalid --jobs=\"abc\"");
}

TEST(EnvFailFastDeathTest, OutOfRangeJobsFlagExitsWithConfigError) {
  const char *Argv[] = {"sweep", "--jobs=0"};
  EXPECT_EXIT(bench::jobsFromArgs(2, const_cast<char **>(Argv)),
              ::testing::ExitedWithCode(support::ConfigErrorExit),
              "invalid --jobs=\"0\"");
}

// SPF_SCALE follows the same rule: a non-number, a scale <= 0 or a
// suffix exits 2 instead of silently running at full scale.
TEST(EnvFailFastDeathTest, MalformedSpfScaleExitsWithConfigError) {
  for (const char *Bad : {"abc", "0", "-1", "0.1x"}) {
    ScopedEnv E("SPF_SCALE", Bad);
    EXPECT_EXIT(bench::scaleFromEnv(),
                ::testing::ExitedWithCode(support::ConfigErrorExit),
                std::string("invalid SPF_SCALE=\"") + Bad + "\"")
        << Bad;
  }
}

TEST(EnvFailFastTest, WellFormedValuesParse) {
  {
    ScopedEnv E("SPF_CELL_TIMEOUT", "2.5");
    EXPECT_DOUBLE_EQ(support::envDouble("SPF_CELL_TIMEOUT", 0.0, 0.0), 2.5);
  }
  {
    ScopedEnv E("SPF_OBS", "0");
    EXPECT_EQ(support::envU64("SPF_OBS", 1), 0u);
  }
  {
    ScopedEnv E("SPF_SCALE", "0.25");
    EXPECT_DOUBLE_EQ(bench::scaleFromEnv(), 0.25);
  }
  {
    ScopedEnv E("SPF_SCALE", nullptr);
    EXPECT_DOUBLE_EQ(bench::scaleFromEnv(), 1.0); // Unset: full scale.
  }
  const char *Argv[] = {"sweep", "--jobs", "3"};
  EXPECT_EQ(bench::jobsFromArgs(3, const_cast<char **>(Argv)), 3u);
}

// -- Injector determinism --------------------------------------------------

TEST(FaultInjectorTest, SameConfigAndSaltYieldTheSameDecisions) {
  auto C = FaultConfig::parse("alloc:0.5:99");
  ASSERT_TRUE(C.has_value());
  FaultInjector A(*C, 17), B(*C, 17);
  for (unsigned I = 0; I != 1000; ++I)
    ASSERT_EQ(A.shouldFail(FaultSite::Alloc), B.shouldFail(FaultSite::Alloc))
        << "decision " << I;
  EXPECT_EQ(A.totalInjected(), B.totalInjected());
  EXPECT_GT(A.totalInjected(), 0u); // Rate 0.5 over 1000 draws fires.
}

TEST(FaultInjectorTest, DifferentSaltsYieldDifferentStreams) {
  auto C = FaultConfig::parse("alloc:0.5:99");
  ASSERT_TRUE(C.has_value());
  FaultInjector A(*C, 1), B(*C, 2);
  unsigned Differing = 0;
  for (unsigned I = 0; I != 1000; ++I)
    Differing += A.shouldFail(FaultSite::Alloc) !=
                 B.shouldFail(FaultSite::Alloc);
  EXPECT_GT(Differing, 0u); // Cells must draw unrelated streams.
}

TEST(FaultInjectorTest, RateExtremes) {
  auto C1 = FaultConfig::parse("guard-addr:1:5");
  ASSERT_TRUE(C1.has_value());
  FaultInjector Always(*C1);
  for (unsigned I = 0; I != 100; ++I)
    ASSERT_TRUE(Always.shouldFail(FaultSite::GuardAddr));

  auto C0 = FaultConfig::parse("guard-addr:0:5");
  ASSERT_TRUE(C0.has_value());
  FaultInjector Never(*C0);
  for (unsigned I = 0; I != 100; ++I)
    ASSERT_FALSE(Never.shouldFail(FaultSite::GuardAddr));
  EXPECT_EQ(Never.totalInjected(), 0u);
}

TEST(FaultScopeTest, ActivatesPerThreadAndNests) {
  EXPECT_EQ(FaultScope::current(), nullptr);
  EXPECT_FALSE(SPF_FAULT_POINT(FaultSite::Alloc)); // No scope: never fires.

  auto C = FaultConfig::parse("alloc:1:1");
  ASSERT_TRUE(C.has_value());
  FaultInjector Outer(*C), Inner(*C);
  {
    FaultScope S1(Outer);
    EXPECT_EQ(FaultScope::current(), &Outer);
    EXPECT_TRUE(SPF_FAULT_POINT(FaultSite::Alloc));
    {
      FaultScope S2(Inner);
      EXPECT_EQ(FaultScope::current(), &Inner);
      EXPECT_TRUE(SPF_FAULT_POINT(FaultSite::Alloc)); // Draws from Inner.
    }
    EXPECT_EQ(FaultScope::current(), &Outer); // Restored on unwind.
  }
  EXPECT_EQ(FaultScope::current(), nullptr);
  EXPECT_GT(Outer.totalInjected(), 0u);
  EXPECT_GT(Inner.totalInjected(), 0u);
}

// -- Graceful degradation of inspection ------------------------------------

/// With every inspection heap read faulted to `unknown`, the pass must
/// degrade to "no prefetch" — never crash, never emit a bogus plan.
TEST(DegradationTest, FaultedInspectionYieldsNoPrefetches) {
  JessWorld W(64, /*Scramble=*/true);
  auto C = FaultConfig::parse("inspect-read:1:3");
  ASSERT_TRUE(C.has_value());
  FaultInjector Injector(*C);
  FaultScope Scope(Injector);

  PrefetchPassOptions Opts;
  Opts.Planner.Mode = PrefetchMode::InterIntra;
  Opts.Planner.LineBytes = 64;
  PrefetchPass Pass(*W.Heap, Opts);
  PrefetchPassResult R = Pass.run(W.Find, W.findArgs());

  EXPECT_GT(R.InspectionFaultsInjected, 0u);
  EXPECT_EQ(R.CodeGen.Prefetches, 0u);
  EXPECT_EQ(R.CodeGen.SpecLoads, 0u);
  EXPECT_GT(Injector.injectedCount(FaultSite::InspectHeapRead), 0u);
}

/// The same pass without faults emits code — the degradation above comes
/// from the injector, not from the kernel being unprefetchable.
TEST(DegradationTest, SameKernelPrefetchesWithoutFaults) {
  JessWorld W(64, /*Scramble=*/true);
  PrefetchPassOptions Opts;
  Opts.Planner.Mode = PrefetchMode::InterIntra;
  Opts.Planner.LineBytes = 64;
  PrefetchPass Pass(*W.Heap, Opts);
  PrefetchPassResult R = Pass.run(W.Find, W.findArgs());
  EXPECT_EQ(R.InspectionFaultsInjected, 0u);
  EXPECT_GT(R.CodeGen.Prefetches + R.CodeGen.SpecLoads, 0u);
}

// -- StepBudget abort path -------------------------------------------------

/// An inspection cut off by the step budget must leave a *consistent*
/// partial trace (iterations in range and monotone per load), and the
/// stride/planning pipeline must still produce a structurally valid plan
/// from it.
TEST(StepBudgetTest, PartialTraceStaysConsistentAndPlannable) {
  for (uint64_t Budget : {40u, 200u, 800u}) {
    JessWorld W(64, /*Scramble=*/true);
    W.Find->recomputePreds();
    analysis::DominatorTree DT(W.Find);
    analysis::LoopInfo LI(W.Find, DT);
    analysis::DefUse DU(W.Find);
    analysis::Loop *Target = LI.topLevelLoops()[0];
    LoadDependenceGraph G(Target, LI);

    InspectorOptions Opts;
    Opts.StepBudget = Budget;
    ObjectInspector Insp(*W.Heap, LI, Opts);
    InspectionResult R = Insp.inspect(W.Find, W.findArgs(), Target, G);

    EXPECT_LE(R.StepsUsed, Budget + 1) << "budget " << Budget;
    EXPECT_FALSE(R.Degraded);
    for (const auto &[Load, Recs] : R.Trace) {
      unsigned Prev = 0;
      bool First = true;
      for (const AddrRecord &Rec : Recs) {
        EXPECT_LT(Rec.Iteration, Opts.MaxIterations);
        if (!First) {
          EXPECT_GT(Rec.Iteration, Prev) << "trace not monotone";
        }
        Prev = Rec.Iteration;
        First = false;
      }
    }

    // The pipeline downstream of the partial trace must stay sound.
    annotateStrides(G, R, StrideOptions());
    PlannerOptions POpts;
    POpts.Mode = PrefetchMode::InterIntra;
    POpts.LineBytes = 64;
    LoopPlan Plan = planPrefetches(G, DU, POpts);
    for (const AnchorPlan &A : Plan.Anchors) {
      EXPECT_NE(A.Anchor, nullptr);
      EXPECT_NE(A.Base, nullptr);
      for (const DerefPrefetch &D : A.Derefs)
        EXPECT_NE(D.ForLoad, nullptr);
    }
  }
}

// -- Guarded-load fault model ----------------------------------------------

TEST(GuardFaultTest, MemorySystemChargesTheFaultCostWithoutFills) {
  sim::MachineConfig Cfg = (*sim::MachineConfig::byName("pentium4"));
  sim::MemorySystem Mem(Cfg);
  uint64_t Before = Mem.cycles();
  sim::MemoryStats Stats0 = Mem.stats();

  Mem.guardedLoadFault(0);

  EXPECT_EQ(Mem.stats().GuardedLoadFaults, Stats0.GuardedLoadFaults + 1);
  EXPECT_EQ(Mem.cycles(), Before + Cfg.GuardFaultCost);
  // The recovery branch touches no memory: no loads, no misses, no
  // successful guarded loads, no prefetch traffic.
  EXPECT_EQ(Mem.stats().Loads, Stats0.Loads);
  EXPECT_EQ(Mem.stats().L1LoadMisses, Stats0.L1LoadMisses);
  EXPECT_EQ(Mem.stats().L2LoadMisses, Stats0.L2LoadMisses);
  EXPECT_EQ(Mem.stats().DtlbLoadMisses, Stats0.DtlbLoadMisses);
  EXPECT_EQ(Mem.stats().GuardedLoads, Stats0.GuardedLoads);
  EXPECT_EQ(Mem.stats().SwPrefetchesIssued, Stats0.SwPrefetchesIssued);
}

/// End to end: corrupting guarded-load addresses makes the software
/// exception check fire (GuardedLoadFaults > 0) while the program's
/// result stays bit-identical — the guard contains the bad address.
TEST(GuardFaultTest, CorruptedAddressesFailTheGuardNotTheProgram) {
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("jess");
  ASSERT_NE(Spec, nullptr);
  workloads::RunOptions Opt;
  Opt.Machine = (*sim::MachineConfig::byName("pentium4"));
  Opt.Algo = workloads::Algorithm::InterIntra;
  Opt.Config.Scale = 0.05;

  workloads::RunResult Clean = workloads::runWorkload(*Spec, Opt);
  ASSERT_TRUE(Clean.SelfCheckOk);
  ASSERT_GT(Clean.Mem.GuardedLoads, 0u); // P4 INTER+INTRA uses guards.

  auto C = FaultConfig::parse("guard-addr:1:11");
  ASSERT_TRUE(C.has_value());
  FaultInjector Injector(*C);
  workloads::RunResult Chaos;
  {
    FaultScope Scope(Injector);
    Chaos = workloads::runWorkload(*Spec, Opt);
  }

  EXPECT_GT(Chaos.Mem.GuardedLoadFaults, 0u);
  EXPECT_EQ(Chaos.ReturnValue, Clean.ReturnValue); // Contained.
  EXPECT_TRUE(Chaos.SelfCheckOk);
  EXPECT_EQ(Chaos.Retired, Clean.Retired); // Same instruction stream.
}

// -- Harness: quarantine, timeout, schedule independence -------------------

harness::ExperimentPlan tinyJessPlan(unsigned Cells = 1) {
  harness::ExperimentPlan Plan;
  for (unsigned I = 0; I != Cells; ++I) {
    harness::ExperimentCell C;
    C.Group = "chaos";
    C.Spec = workloads::findWorkload("jess");
    C.Opt.Config.Scale = 0.05;
    Plan.add(std::move(C));
  }
  return Plan;
}

TEST(ChaosHarnessTest, ChaosRunsAreScheduleIndependent) {
  // Every pass site armed: injectors are seeded per cell, never per
  // worker, so 1 and 8 workers must produce bit-identical statistics.
  ScopedEnv E("SPF_FAULTS",
              "inspect-read:0.02:1,alloc:0.001:2,guard-addr:0.05:3");
  ScopedEnv T("SPF_CELL_TIMEOUT", nullptr);
  harness::ExperimentPlan Plan;
  Plan.addSweep({workloads::findWorkload("jess"),
                 workloads::findWorkload("db")},
                {workloads::Algorithm::Baseline,
                 workloads::Algorithm::InterIntra},
                {*sim::MachineConfig::byName("pentium4"),
                 *sim::MachineConfig::byName("athlonmp")},
                tinyJessPlan().cells()[0].Opt.Config, "chaos");

  harness::ExperimentResult Serial = harness::runPlan(Plan, 1);
  harness::ExperimentResult Parallel = harness::runPlan(Plan, 8);
  EXPECT_TRUE(Serial.ok())
      << (Serial.Failures.empty() ? "" : Serial.Failures[0]);
  EXPECT_TRUE(Parallel.ok());
  EXPECT_TRUE(Serial.Quarantine.empty());

  uint64_t GuardFaults = 0;
  ASSERT_EQ(Serial.Cells.size(), Parallel.Cells.size());
  for (unsigned I = 0; I != Plan.size(); ++I) {
    ASSERT_TRUE(Serial.Cells[I].Ran && Parallel.Cells[I].Ran) << I;
    const workloads::RunResult &S = Serial.run(I);
    const workloads::RunResult &P = Parallel.run(I);
    EXPECT_FALSE(S.Replayed) << I; // Chaos cells never share.
    EXPECT_EQ(S.ReturnValue, P.ReturnValue) << I;
    EXPECT_EQ(S.CompiledCycles, P.CompiledCycles) << I;
    EXPECT_EQ(S.Retired, P.Retired) << I;
    EXPECT_EQ(S.Mem, P.Mem) << I;
    EXPECT_EQ(S.Acct, P.Acct) << I;
    EXPECT_EQ(S.Sites, P.Sites) << I;
    EXPECT_EQ(S.Prefetch.CodeGen.Prefetches, P.Prefetch.CodeGen.Prefetches)
        << I;
    EXPECT_EQ(S.Prefetch.CodeGen.SpecLoads, P.Prefetch.CodeGen.SpecLoads)
        << I;
    GuardFaults += S.Mem.GuardedLoadFaults;
  }
  EXPECT_GT(GuardFaults, 0u) << "the guard-addr site never fired";
}

TEST(ChaosHarnessTest, TimeoutIsQuarantinedAndFailed) {
  ScopedEnv E("SPF_FAULTS", nullptr);
  ScopedEnv T("SPF_CELL_TIMEOUT", "0.000001"); // Expires immediately.
  harness::ExperimentPlan Plan = tinyJessPlan(1);
  harness::ExperimentResult R = harness::runPlan(Plan, 1);

  // A timeout is a real problem: the cell is quarantined AND the sweep
  // fails.
  EXPECT_FALSE(R.ok());
  ASSERT_EQ(R.Quarantine.size(), 1u);
  EXPECT_EQ(R.Quarantine[0].Kind, "timeout");
  EXPECT_FALSE(R.Cells[0].Ran);
  EXPECT_TRUE(R.Cells[0].TimedOut);
  ASSERT_EQ(R.Failures.size(), 1u);
  EXPECT_NE(R.Failures[0].find("timed out"), std::string::npos);
}

TEST(ChaosHarnessTest, NoFaultsMeansNoQuarantineAndNoOverhead) {
  ScopedEnv E("SPF_FAULTS", nullptr);
  ScopedEnv T("SPF_CELL_TIMEOUT", nullptr);
  harness::ExperimentPlan Plan = tinyJessPlan(1);
  harness::ExperimentResult R = harness::runPlan(Plan, 1);
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.Quarantine.empty());
  ASSERT_TRUE(R.Cells[0].Ran);
}

} // namespace
