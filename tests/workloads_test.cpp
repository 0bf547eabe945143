//===- tests/workloads_test.cpp - The 12 Table 3 kernels ------------------===//
//
// Every workload must (a) build a verifiable module, (b) run to completion
// on both machine models, (c) compute the identical result under BASELINE,
// INTER, and INTER+INTRA (prefetching is semantically transparent), and
// (d) pass its self-check oracle where one exists.
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"
#include "workloads/ProgramPopulation.h"
#include "workloads/Runner.h"

#include <gtest/gtest.h>

using namespace spf;
using namespace spf::workloads;

namespace {

WorkloadConfig tinyConfig() {
  WorkloadConfig Cfg;
  Cfg.Scale = 0.02;
  Cfg.HeapBytes = 24ull << 20;
  return Cfg;
}

class WorkloadCase : public ::testing::TestWithParam<const char *> {};

TEST_P(WorkloadCase, BuildsVerifiableModule) {
  const WorkloadSpec *Spec = findWorkload(GetParam());
  ASSERT_NE(Spec, nullptr);
  BuiltWorkload W = Spec->Build(tinyConfig());
  ASSERT_NE(W.Entry, nullptr);
  std::vector<std::string> Errors;
  EXPECT_TRUE(ir::verifyModule(W.Module.get(), &Errors));
  for (const auto &E : Errors)
    ADD_FAILURE() << E;
  EXPECT_FALSE(W.CompileUnits.empty());
  EXPECT_GT(W.Heap->bytesUsed(), 0u);
}

TEST_P(WorkloadCase, ResultIsIdenticalUnderAllAlgorithms) {
  const WorkloadSpec *Spec = findWorkload(GetParam());
  ASSERT_NE(Spec, nullptr);

  RunOptions Base;
  Base.Config = tinyConfig();
  Base.Algo = Algorithm::Baseline;
  RunResult RBase = runWorkload(*Spec, Base);
  EXPECT_TRUE(RBase.SelfCheckOk) << "baseline self-check failed";
  EXPECT_GT(RBase.Retired, 0u);
  EXPECT_GT(RBase.CompiledCycles, 0u);

  for (Algorithm A : {Algorithm::Inter, Algorithm::InterIntra}) {
    for (auto Machine : {(*sim::MachineConfig::byName("pentium4")),
                         (*sim::MachineConfig::byName("athlonmp"))}) {
      RunOptions Opt;
      Opt.Config = tinyConfig();
      Opt.Algo = A;
      Opt.Machine = Machine;
      RunResult R = runWorkload(*Spec, Opt);
      EXPECT_EQ(R.ReturnValue, RBase.ReturnValue)
          << algorithmName(A) << " on " << Machine.Name
          << " changed the program result";
      EXPECT_TRUE(R.SelfCheckOk);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table3, WorkloadCase,
    ::testing::Values("mtrt", "jess", "compress", "db", "mpegaudio", "jack",
                      "javac", "Euler", "MolDyn", "MonteCarlo", "RayTracer",
                      "Search"),
    [](const ::testing::TestParamInfo<const char *> &Info) {
      return std::string(Info.param);
    });

TEST(WorkloadRegistryTest, AllTwelveTable3RowsPresent) {
  EXPECT_EQ(allWorkloads().size(), 12u);
  for (const WorkloadSpec &S : allWorkloads()) {
    EXPECT_FALSE(S.Description.empty());
    EXPECT_GT(S.CompiledFraction, 0.0);
    EXPECT_LE(S.CompiledFraction, 1.0);
  }
  EXPECT_EQ(findWorkload("nonesuch"), nullptr);
}

TEST(WorkloadBehaviorTest, DbEmitsOnlyDerefAndIntraPrefetches) {
  // The paper's db story: INTER finds nothing; INTER+INTRA prefetches
  // through the record chain.
  const WorkloadSpec *Spec = findWorkload("db");
  RunOptions Opt;
  Opt.Config = tinyConfig();
  Opt.Algo = Algorithm::Inter;
  RunResult Inter = runWorkload(*Spec, Opt);
  EXPECT_EQ(Inter.Prefetch.CodeGen.Prefetches, 0u);

  Opt.Algo = Algorithm::InterIntra;
  RunResult Intra = runWorkload(*Spec, Opt);
  EXPECT_GT(Intra.Prefetch.CodeGen.SpecLoads, 0u);
  EXPECT_GT(Intra.Prefetch.CodeGen.Prefetches, 0u);
}

TEST(WorkloadBehaviorTest, EulerEmitsPlainInterPrefetches) {
  const WorkloadSpec *Spec = findWorkload("Euler");
  RunOptions Opt;
  Opt.Config = tinyConfig();
  Opt.Algo = Algorithm::Inter;
  RunResult Inter = runWorkload(*Spec, Opt);
  EXPECT_GT(Inter.Prefetch.CodeGen.Prefetches, 0u);
  EXPECT_EQ(Inter.Prefetch.CodeGen.SpecLoads, 0u);

  // INTER+INTRA adds nothing for Euler (all patterns are inter).
  Opt.Algo = Algorithm::InterIntra;
  RunResult Intra = runWorkload(*Spec, Opt);
  EXPECT_EQ(Intra.Prefetch.CodeGen.Prefetches,
            Inter.Prefetch.CodeGen.Prefetches);
  EXPECT_EQ(Intra.Prefetch.CodeGen.SpecLoads, 0u);
}

TEST(WorkloadBehaviorTest, NoApplicableFragmentsInCompressJavacSearch) {
  for (const char *Name : {"compress", "javac", "Search", "jack",
                           "MonteCarlo"}) {
    const WorkloadSpec *Spec = findWorkload(Name);
    RunOptions Opt;
    Opt.Config = tinyConfig();
    Opt.Algo = Algorithm::InterIntra;
    RunResult R = runWorkload(*Spec, Opt);
    EXPECT_EQ(R.Prefetch.CodeGen.Prefetches, 0u)
        << Name << " unexpectedly got prefetches";
    EXPECT_EQ(R.Prefetch.CodeGen.SpecLoads, 0u) << Name;
  }
}

TEST(WorkloadBehaviorTest, MolDynRejectedOnP4ButEmittedOnAthlon) {
  // Molecule pitch (72B) exceeds half a line on both machines, so both
  // emit; the difference shows up in cycles, not in emission. Verify
  // emission happens at all.
  const WorkloadSpec *Spec = findWorkload("MolDyn");
  RunOptions Opt;
  Opt.Config = tinyConfig();
  Opt.Algo = Algorithm::Inter;
  Opt.Machine = (*sim::MachineConfig::byName("athlonmp"));
  RunResult R = runWorkload(*Spec, Opt);
  EXPECT_GT(R.Prefetch.CodeGen.Prefetches, 0u);
}

TEST(WorkloadBehaviorTest, JessCompileTimeOverheadIsSmall) {
  const WorkloadSpec *Spec = findWorkload("jess");
  RunOptions Opt;
  Opt.Config = tinyConfig();
  Opt.Algo = Algorithm::InterIntra;
  CompileTime T = measureCompileTime(*Spec, Opt);
  EXPECT_GT(T.TotalUs, 0.0);
  EXPECT_GT(T.PrefetchUs, 0.0);
  EXPECT_LT(T.PrefetchUs, T.TotalUs);
}

TEST(RunnerTest, PassOptionsFollowTheMachine) {
  auto P4 = passOptionsFor((*sim::MachineConfig::byName("pentium4")),
                           core::PrefetchMode::InterIntra);
  EXPECT_EQ(P4.Planner.LineBytes, 128u); // The L2 line: prefetch target.
  EXPECT_TRUE(P4.Planner.GuardedIntraPrefetch);

  auto At = passOptionsFor((*sim::MachineConfig::byName("athlonmp")),
                           core::PrefetchMode::InterIntra);
  EXPECT_EQ(At.Planner.LineBytes, 64u); // The L1 line.
  EXPECT_FALSE(At.Planner.GuardedIntraPrefetch);
}

TEST(RunnerTest, TotalTimeModelDampsByCompiledFraction) {
  // With f = 0.5, halving compiled time yields only a 1.33x speedup.
  double TBase = totalTime(1000, 1000, 0.5);
  double TOpt = totalTime(500, 1000, 0.5);
  EXPECT_DOUBLE_EQ(TBase, 2000.0);
  EXPECT_DOUBLE_EQ(TOpt, 1500.0);
}

} // namespace

TEST(ProgramPopulationTest, PopulationMethodsVerifyAndStayUntouched) {
  // The synthesized ordinary methods (the Figure 11 denominator) must be
  // verifiable, compile cleanly, and never attract prefetches (they are
  // compiled without argument values and have no strided heap loads).
  const WorkloadSpec *Spec = findWorkload("MolDyn"); // 60 pop methods.
  WorkloadConfig Cfg;
  Cfg.Scale = 0.02;
  BuiltWorkload W = Spec->Build(Cfg);

  unsigned PopMethods = 0;
  jit::CompileManager::Options Opts;
  Opts.Pass = passOptionsFor((*sim::MachineConfig::byName("pentium4")),
                             core::PrefetchMode::InterIntra);
  jit::CompileManager Jit(*W.Heap, Opts);
  for (const CompileUnit &CU : W.CompileUnits) {
    if (CU.M->name().rfind("pop.", 0) != 0)
      continue;
    ++PopMethods;
    ASSERT_TRUE(ir::verifyMethod(CU.M)) << CU.M->name();
    jit::CompileResult R = Jit.compile(CU.M, CU.Args);
    EXPECT_EQ(R.Prefetch.CodeGen.Prefetches, 0u) << CU.M->name();
    EXPECT_EQ(R.Prefetch.CodeGen.SpecLoads, 0u) << CU.M->name();
  }
  EXPECT_EQ(PopMethods, 60u);
}

TEST(ProgramPopulationTest, RunnerCompilesOnlyExecutedUnits) {
  // The population stays in the world, after the executed units, for
  // Figure 11's denominator; a run compiles only the executed units, so
  // no decision names a population method.
  const WorkloadSpec *Spec = findWorkload("MolDyn"); // 60 pop methods.
  RunOptions Opt;
  Opt.Config = tinyConfig();
  Opt.Algo = Algorithm::InterIntra;
  BuiltWorkload W = Spec->Build(Opt.Config);
  EXPECT_EQ(W.CompileUnits.size(), W.executedUnits().size() + 60);
  for (const CompileUnit &CU : W.executedUnits())
    EXPECT_NE(CU.M->name().rfind("pop.", 0), 0u) << CU.M->name();

  RunResult R = runWorkload(*Spec, Opt);
  EXPECT_TRUE(R.SelfCheckOk);
  ASSERT_FALSE(R.Decisions.empty());
  for (const obs::DecisionEvent &E : R.Decisions)
    EXPECT_NE(E.Method.rfind("pop.", 0), 0u) << E.Method;
}

TEST(ProgramPopulationTest, PopulationIsDeterministic) {
  WorkloadConfig Cfg;
  Cfg.Scale = 0.02;
  BuiltWorkload A = findWorkload("Search")->Build(Cfg);
  BuiltWorkload B = findWorkload("Search")->Build(Cfg);
  ASSERT_EQ(A.CompileUnits.size(), B.CompileUnits.size());
  // Same names, same block/instruction counts.
  for (size_t I = 0; I != A.CompileUnits.size(); ++I) {
    EXPECT_EQ(A.CompileUnits[I].M->name(), B.CompileUnits[I].M->name());
    EXPECT_EQ(A.CompileUnits[I].M->numBlocks(),
              B.CompileUnits[I].M->numBlocks());
  }
}

TEST(RunnerTest, SpeedupSignConventions) {
  RunResult Base, Fast, Slow;
  Base.CompiledCycles = 1000;
  Fast.CompiledCycles = 800;
  Slow.CompiledCycles = 1250;
  EXPECT_GT(speedupPercent(Base, Fast, 1.0), 24.9);
  EXPECT_LT(speedupPercent(Base, Slow, 1.0), -19.9);
  EXPECT_DOUBLE_EQ(speedupPercent(Base, Base, 0.7), 0.0);
  // Damping: the same compiled-code gain shrinks with lower f.
  EXPECT_LT(speedupPercent(Base, Fast, 0.5), speedupPercent(Base, Fast, 1.0));
}

// -- Epochs, GC perturbation, and the governor -------------------------------

TEST(AdaptationRunTest, EpochRunsPreserveResultsUnderEveryVariant) {
  const WorkloadSpec *Spec = findWorkload("jess");
  ASSERT_NE(Spec, nullptr);
  RunOptions Base;
  Base.Config = tinyConfig();
  RunResult RBase = runWorkload(*Spec, Base);
  ASSERT_TRUE(RBase.SelfCheckOk);
  EXPECT_EQ(RBase.Epochs, 1u);

  for (vm::GcVariant V :
       {vm::GcVariant::SlidingCompact, vm::GcVariant::MarkSweep,
        vm::GcVariant::AddressShuffle, vm::GcVariant::PromotionOrder}) {
    RunOptions Opt;
    Opt.Config = tinyConfig();
    Opt.Algo = Algorithm::InterIntra;
    Opt.Epochs = 3;
    Opt.GcVariant = V;
    RunResult R = runWorkload(*Spec, Opt);
    EXPECT_TRUE(R.SelfCheckOk) << vm::gcVariantName(V);
    EXPECT_EQ(R.ReturnValue, RBase.ReturnValue) << vm::gcVariantName(V);
    EXPECT_EQ(R.Epochs, 3u);
    EXPECT_GE(R.GcCollections, 2u) << vm::gcVariantName(V);
  }
}

TEST(AdaptationRunTest, GovernedRunPreservesResultsAndTracksHealth) {
  // Euler's INTER plan on the Athlon MP goes stale under address-shuffle:
  // at scale 0.05 one of its sites resolves enough inaccurate fills for
  // the governor to quarantine it.
  const WorkloadSpec *Spec = findWorkload("Euler");
  ASSERT_NE(Spec, nullptr);
  RunOptions Off;
  Off.Config.Scale = 0.05;
  Off.Machine = (*sim::MachineConfig::byName("athlonmp"));
  Off.Algo = Algorithm::Inter;
  Off.Epochs = 3;
  Off.GcVariant = vm::GcVariant::AddressShuffle;
  RunResult ROff = runWorkload(*Spec, Off);
  ASSERT_TRUE(ROff.SelfCheckOk);
  // Health tracking is off: the governed-only counters stay zero, so the
  // stats match the pre-governor wire format bit for bit.
  EXPECT_EQ(ROff.Mem.SwPrefetchesUseful + ROff.Mem.SwPrefetchesLate +
                ROff.Mem.SwPrefetchesUnused,
            0u);
  EXPECT_EQ(ROff.GovernorQuarantined, 0u);

  RunOptions On = Off;
  On.Governor = true;
  RunResult ROn = runWorkload(*Spec, On);
  EXPECT_TRUE(ROn.SelfCheckOk);
  EXPECT_EQ(ROn.ReturnValue, ROff.ReturnValue)
      << "governor changed the program result";
  EXPECT_EQ(ROn.Epochs, 3u);
  // Health tracking attributed fills, and the governor acted on them.
  EXPECT_GT(ROn.Mem.SwPrefetchesUseful + ROn.Mem.SwPrefetchesLate +
                ROn.Mem.SwPrefetchesUnused,
            0u);
  EXPECT_GT(ROn.GovernorQuarantined + ROn.GovernorReinspections, 0u);
}

TEST(AdaptationRunTest, PhaseChangeShufflesRefArraysDeterministically) {
  WorkloadConfig Cfg = tinyConfig();
  BuiltWorkload A = findWorkload("db")->Build(Cfg);
  BuiltWorkload B = findWorkload("db")->Build(Cfg);

  unsigned NA = applyPhaseChange(*A.Heap, /*Seed=*/7);
  EXPECT_GT(NA, 0u); // db's heap holds Ref arrays to shuffle.
  // Deterministic: the same seed shuffles an identical heap identically.
  EXPECT_EQ(applyPhaseChange(*B.Heap, /*Seed=*/7), NA);
  for (vm::Addr Addr = A.Heap->heapBase(); Addr < A.Heap->heapTop();
       Addr += A.Heap->objectSize(Addr)) {
    if (!A.Heap->isArray(Addr) ||
        A.Heap->arrayElemType(Addr) != ir::Type::Ref)
      continue;
    for (uint64_t I = 0, E = A.Heap->arrayLength(Addr); I != E; ++I)
      EXPECT_EQ(A.Heap->load(A.Heap->elemAddr(Addr, I), ir::Type::Ref),
                B.Heap->load(B.Heap->elemAddr(Addr, I), ir::Type::Ref));
  }

  // And the program still computes the right answer afterwards: shuffle
  // the live heap mid-epoch via the runner's knob.
  const WorkloadSpec *Spec = findWorkload("db");
  RunOptions Base;
  Base.Config = tinyConfig();
  RunResult RBase = runWorkload(*Spec, Base);
  RunOptions Opt;
  Opt.Config = tinyConfig();
  Opt.Algo = Algorithm::InterIntra;
  Opt.Epochs = 3;
  Opt.PhaseChange = true;
  RunResult R = runWorkload(*Spec, Opt);
  EXPECT_TRUE(R.SelfCheckOk);
  EXPECT_EQ(R.ReturnValue, RBase.ReturnValue);
}
