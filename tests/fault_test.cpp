//===- tests/fault_test.cpp - Failure containment -------------------------===//
//
// Coverage for the failure-containment layer on the inputs that reach
// it: per-loop degradation of inspection, the step-budget abort, the
// guarded-load fault path, the harness's quarantine of cells that throw,
// and strict parsing of SPF_* knobs and bench flags.
// The overarching invariant: a recovery path never changes a simulated
// program's result or takes the process down.
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchCommon.h"
#include "TestKernels.h"
#include "core/ObjectInspector.h"
#include "core/PrefetchPass.h"
#include "core/PrefetchPlanner.h"
#include "core/StrideAnalysis.h"
#include "harness/Experiment.h"
#include "harness/JsonReader.h"
#include "obs/DecisionLog.h"
#include "sim/MemorySystem.h"
#include "support/Env.h"
#include "support/Status.h"
#include "workloads/KernelBuilder.h"
#include "workloads/Runner.h"

#include <gtest/gtest.h>

#include <algorithm>
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

// -- Fail-fast environment parsing -----------------------------------------
//
// A malformed knob must kill the process immediately with a clear message
// and exit code 2 (support::ConfigErrorExit) — a typo'd knob that silently
// meant its default would make a CI job pass vacuously.

/// bench::init on \p Argv: the shared flags plus one `--json` flag.
void initBench(std::vector<const char *> Argv, std::string &Json) {
  Argv.insert(Argv.begin(), "sweep");
  bench::init(static_cast<int>(Argv.size()), const_cast<char **>(Argv.data()),
              {bench::stringFlag("--json", Json)});
}

// Bench flags follow the rule: a value that is not wholly an
// in-range integer exits 2 instead of silently meaning something else.
TEST(EnvFailFastDeathTest, NonNumericJobsFlagExitsWithConfigError) {
  std::string Json;
  EXPECT_EXIT(initBench({"--jobs", "abc"}, Json),
              ::testing::ExitedWithCode(support::ConfigErrorExit),
              "invalid --jobs=\"abc\"");
}

TEST(EnvFailFastDeathTest, OutOfRangeJobsFlagExitsWithConfigError) {
  std::string Json;
  EXPECT_EXIT(initBench({"--jobs=0"}, Json),
              ::testing::ExitedWithCode(support::ConfigErrorExit),
              "invalid --jobs=\"0\"");
}

// An argument no flag claims exits 2 rather than running with that
// setting at its default: a misspelled flag, another binary's flag, a
// stray word, a deleted flag, a switch given a value. So does a value
// flag that ends the command line.
TEST(EnvFailFastDeathTest, UnknownArgumentExitsWithConfigError) {
  std::string Json;
  for (const char *Bad : {"--jbos", "--epochs", "stray", "--explain",
                          "--decisions-out"})
    EXPECT_EXIT(initBench({"--json", "x", Bad, "2"}, Json),
                ::testing::ExitedWithCode(support::ConfigErrorExit),
                std::string("unknown argument \"") + Bad + "\"")
        << Bad;
  // "--phase-change=1" is not read as the switch turned on.
  bench::AdaptationKnobs Knobs;
  std::vector<const char *> Argv = {"sweep", "--phase-change=1"};
  EXPECT_EXIT(bench::parseArgs(static_cast<int>(Argv.size()),
                               const_cast<char **>(Argv.data()),
                               Knobs.flags()),
              ::testing::ExitedWithCode(support::ConfigErrorExit),
              "unknown argument \"--phase-change=1\"");
  EXPECT_EXIT(initBench({"--jobs"}, Json),
              ::testing::ExitedWithCode(support::ConfigErrorExit),
              "invalid --jobs=\"\": missing value");
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
    ScopedEnv E("SPF_SCALE", "0.25");
    EXPECT_DOUBLE_EQ(bench::scaleFromEnv(), 0.25);
  }
  {
    ScopedEnv E("SPF_SCALE", nullptr);
    EXPECT_DOUBLE_EQ(bench::scaleFromEnv(), 1.0); // Unset: full scale.
  }
  // A flag's value is taken whole, even one that looks like a flag.
  std::string Json;
  initBench({"--jobs", "3", "--json", "--profile-out"}, Json);
  EXPECT_EQ(bench::cli().Jobs, 3u);
  EXPECT_EQ(Json, "--profile-out");
  EXPECT_TRUE(bench::cli().ProfileOut.empty());
}

// -- Graceful degradation of inspection ------------------------------------

/// `walk(tv)`: two loops over the tokens of a JessWorld, in program
/// order. The first loop calls `broken`, whose only block has no
/// terminator, from its second iteration on, so inter-procedural
/// inspection of that loop degrades. The second loop is well formed, and
/// inspecting it runs the first loop once (the pre-target rule), which
/// never reaches the call.
struct TwoLoopKernel {
  ir::Method *Walk = nullptr;
  std::vector<ir::BasicBlock *> DegradingLoop, CleanLoop;

  explicit TwoLoopKernel(JessWorld &W) {
    using namespace ir;
    IRBuilder B(W.M);
    Method *Broken = W.M.addMethod("broken", Type::Void, {Type::Ref});
    B.setInsertPoint(Broken->addBlock("entry"));
    B.getField(Broken->arg(0), W.TokSize); // ...and no terminator.

    Walk = W.M.addMethod("walk", Type::Void, {Type::Ref});
    BasicBlock *Entry = Walk->addBlock("entry");
    BasicBlock *AH = Walk->addBlock("a.header");
    BasicBlock *AB = Walk->addBlock("a.body");
    BasicBlock *AC = Walk->addBlock("a.call");
    BasicBlock *AL = Walk->addBlock("a.latch");
    BasicBlock *BH = Walk->addBlock("b.header");
    BasicBlock *BB = Walk->addBlock("b.body");
    BasicBlock *Exit = Walk->addBlock("exit");
    DegradingLoop = {AH, AB, AC, AL};
    CleanLoop = {BH, BB};

    B.setInsertPoint(Entry);
    Value *V = B.getField(Walk->arg(0), W.TvV);
    Value *N = B.getField(Walk->arg(0), W.TvPtr);
    B.jump(AH);

    // Both bodies walk the same chain: v[i] -> token.facts -> length.
    auto Body = [&](Value *I) {
      Value *Tok = B.aload(V, I, Type::Ref);
      B.arrayLength(B.getField(Tok, W.TokFacts));
      return Tok;
    };

    B.setInsertPoint(AH);
    PhiInst *I = B.phi(Type::I32);
    B.br(B.cmpLt(I, N), AB, BH);
    B.setInsertPoint(AB);
    Value *Tok = Body(I);
    B.br(B.cmpLt(B.i32(0), I), AC, AL);
    B.setInsertPoint(AC);
    B.call(Broken, Type::Void, {Tok});
    B.jump(AL);
    B.setInsertPoint(AL);
    Value *I1 = B.add(I, B.i32(1));
    B.jump(AH);

    B.setInsertPoint(BH);
    PhiInst *J = B.phi(Type::I32);
    B.br(B.cmpLt(J, N), BB, Exit);
    B.setInsertPoint(BB);
    Body(J);
    Value *J1 = B.add(J, B.i32(1));
    B.jump(BH);

    B.setInsertPoint(Exit);
    B.ret();

    Walk->recomputePreds();
    I->addIncoming(Entry, W.M.intConst(Type::I32, 0));
    I->addIncoming(AL, I1);
    J->addIncoming(AH, W.M.intConst(Type::I32, 0));
    J->addIncoming(BB, J1);
    EXPECT_TRUE(ir::verifyMethod(Walk));
  }

  /// Prefetch and spec-load instructions in \p Blocks.
  static unsigned prefetchCode(const std::vector<ir::BasicBlock *> &Blocks) {
    unsigned N = 0;
    for (const ir::BasicBlock *Block : Blocks)
      for (const auto &I : Block->instructions())
        N += I->opcode() == ir::Opcode::Prefetch ||
             I->opcode() == ir::Opcode::SpecLoad;
    return N;
  }
};

/// A loop whose inspection fails gets no prefetch code; the pass records
/// why and moves on to the next loop, which it still prefetches. The
/// degrading loop comes first, so a pass that gave up on the method at
/// the first failure would leave the clean loop bare.
TEST(DegradationTest, FailedInspectionDegradesOnlyItsLoop) {
  JessWorld W(64, /*Scramble=*/false);
  TwoLoopKernel K(W);
  PrefetchPassOptions Opts;
  Opts.Planner.Mode = PrefetchMode::InterIntra;
  Opts.Planner.LineBytes = 64;
  Opts.Inspector.FollowCalls = true;

  obs::DecisionLog Log;
  PrefetchPassResult R;
  {
    obs::DecisionScope Scope(Log);
    R = PrefetchPass(*W.Heap, Opts).run(K.Walk, {W.Tv});
  }

  EXPECT_EQ(R.LoopsVisited, 2u);
  EXPECT_EQ(R.LoopsDegraded, 1u);
  ASSERT_EQ(R.Loops.size(), 2u);
  EXPECT_TRUE(R.Loops[0].Degraded);
  EXPECT_EQ(R.Loops[0].DegradeReason,
            "malformed IR: callee block without terminator");
  EXPECT_FALSE(R.Loops[1].Degraded);
  EXPECT_EQ(TwoLoopKernel::prefetchCode(K.DegradingLoop), 0u);
  EXPECT_GT(TwoLoopKernel::prefetchCode(K.CleanLoop), 0u);
  EXPECT_GT(R.CodeGen.Prefetches + R.CodeGen.SpecLoads, 0u);

  const std::vector<obs::DecisionEvent> &Evs = Log.events();
  auto It = std::find_if(Evs.begin(), Evs.end(), [](const auto &E) {
    return E.Pass == "inspect" && E.Event == "degraded";
  });
  ASSERT_NE(It, Evs.end());
  EXPECT_EQ(It->Method, "walk");
  EXPECT_EQ(It->Detail, R.Loops[0].DegradeReason);
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

/// End to end: db's INTER+INTRA code on the Pentium 4 runs guarded loads
/// whose addresses leave the heap, so the software exception check fires
/// (GuardedLoadFaults > 0) while the program's result stays the BASELINE
/// result — the guard contains the bad address.
TEST(GuardFaultTest, GuardFaultsLeaveTheResultUnchanged) {
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("db");
  ASSERT_NE(Spec, nullptr);
  workloads::RunOptions Opt;
  Opt.Machine = (*sim::MachineConfig::byName("pentium4"));
  Opt.Config.Scale = 0.05;
  Opt.Algo = workloads::Algorithm::Baseline;
  workloads::RunResult Baseline = workloads::runWorkload(*Spec, Opt);
  Opt.Algo = workloads::Algorithm::InterIntra;
  workloads::RunResult Guarded = workloads::runWorkload(*Spec, Opt);

  EXPECT_GT(Guarded.Mem.GuardedLoadFaults, 0u);
  EXPECT_EQ(Guarded.ReturnValue, Baseline.ReturnValue);
  EXPECT_TRUE(Guarded.SelfCheckOk);
}

// -- Harness: quarantine ---------------------------------------------------

harness::ExperimentPlan tinyJessPlan(unsigned Cells = 1) {
  harness::ExperimentPlan Plan;
  for (unsigned I = 0; I != Cells; ++I) {
    harness::ExperimentCell C;
    C.Group = "containment";
    C.Spec = workloads::findWorkload("jess");
    C.Opt.Config.Scale = 0.05;
    Plan.add(std::move(C));
  }
  return Plan;
}

/// A program whose entry traps while it runs: `Box.get(null)` reads a
/// field of a null reference. It has no loop, so the prefetch pass
/// leaves it alone and the trap comes from the interpreter.
const workloads::WorkloadSpec &trappingSpec() {
  static const workloads::WorkloadSpec S = [] {
    workloads::WorkloadSpec S;
    S.Name = "null-getfield";
    S.Description = "reads a field of null";
    S.CompiledFraction = 1.0;
    S.Build = [](const workloads::WorkloadConfig &Cfg) {
      workloads::World W(Cfg);
      vm::ClassDesc *Box = W.Types->addClass("Box");
      const vm::FieldDesc *Val = W.Types->addField(Box, "val", ir::Type::I32);
      ir::Method *Get =
          W.Module->addMethod("Box.get", ir::Type::I32, {ir::Type::Ref});
      ir::IRBuilder B(*W.Module);
      B.setInsertPoint(Get->addBlock("entry"));
      B.ret(B.getField(Get->arg(0), Val));
      workloads::BuiltWorkload Built = W.seal(Get, {0}, {});
      Built.CompileUnits.push_back({Get, Built.EntryArgs});
      return Built;
    };
    return S;
  }();
  return S;
}

TEST(HarnessContainmentTest, ARunTimeTrapFailsOnlyItsPartnerSet) {
  // Two cells of the trapping program (one partner set) around a jess
  // cell. The shared execution traps: both its members are quarantined
  // and failed with the trap's message; jess runs as if they were not
  // there.
  harness::ExperimentCell Trapping;
  Trapping.Group = "containment";
  Trapping.Spec = &trappingSpec();
  Trapping.Opt.Config.Scale = 0.05;
  harness::ExperimentPlan Plan;
  Plan.add(Trapping);                   // 0: BASELINE.
  Plan.add(tinyJessPlan(1).cells()[0]); // 1: jess.
  Trapping.Opt.Algo = workloads::Algorithm::InterIntra;
  Plan.add(Trapping); // 2: INTER+INTRA, 0's partner.
  const std::string Trap = "null pointer in getfield";
  std::vector<std::string> Verdicts;
  for (unsigned Jobs : {1u, 4u}) {
    harness::ExperimentResult R = harness::runPlan(Plan, Jobs);
    EXPECT_FALSE(R.ok()) << Jobs;
    ASSERT_TRUE(R.Cells[1].Ran) << Jobs;
    EXPECT_TRUE(R.run(1).SelfCheckOk) << Jobs;
    ASSERT_EQ(R.Quarantine.size(), 2u) << Jobs;
    ASSERT_EQ(R.Failures.size(), 2u) << Jobs;
    for (unsigned K = 0; K != 2; ++K) {
      const unsigned I = 2 * K; // Plan indices 0 and 2.
      EXPECT_FALSE(R.Cells[I].Ran) << Jobs;
      EXPECT_TRUE(R.Cells[I].Failed) << Jobs;
      EXPECT_FALSE(R.Cells[I].TimedOut) << Jobs;
      EXPECT_EQ(R.Cells[I].Error, Trap) << Jobs;
      EXPECT_EQ(R.Quarantine[K].CellIndex, I) << Jobs;
      EXPECT_EQ(R.Quarantine[K].Error, Trap) << Jobs;
      EXPECT_NE(R.Failures[K].find(": failed (" + Trap + ")"),
                std::string::npos)
          << R.Failures[K];
    }

    // The report records both, each with the one quarantine kind.
    std::ostringstream OS;
    harness::writeJsonReport(OS, Plan, R, 0.05, Jobs);
    std::string Error;
    std::unique_ptr<harness::JsonValue> Doc =
        harness::JsonValue::parse(OS.str(), &Error);
    ASSERT_TRUE(Doc) << Error;
    const std::vector<harness::JsonValue> &Q =
        Doc->get("quarantine").array();
    ASSERT_EQ(Q.size(), 2u) << Jobs;
    std::string Verdict;
    for (const harness::JsonValue &Rec : Q) {
      EXPECT_EQ(Rec.getString("kind"), "error") << Jobs;
      EXPECT_EQ(Rec.getString("error"), Trap) << Jobs;
      Verdict += std::to_string(Rec.getU64("cell")) + ";";
    }
    for (const std::string &F : R.Failures)
      Verdict += F + ";";
    for (const harness::CellResult &C : R.Cells)
      Verdict += std::to_string(C.Ran) + std::to_string(C.Failed) + C.Error;
    Verdicts.push_back(Verdict);
  }
  EXPECT_EQ(Verdicts[0], Verdicts[1]); // --jobs 1 and --jobs 4 agree.
}

TEST(HarnessContainmentTest, ACellWhoseCompileThrowsFailsAlone) {
  // Three cells of one partner set; the second one's pass tuning throws.
  // It leaves the shared execution and fails on its own; the others
  // share the execution as if it were not there.
  harness::ExperimentPlan Plan = tinyJessPlan(3);
  Plan.cells()[1].Opt.Algo = workloads::Algorithm::InterIntra;
  Plan.cells()[1].Opt.TunePass = [](core::PrefetchPassOptions &) {
    throw std::runtime_error("bad tuning");
  };
  for (unsigned Jobs : {1u, 4u}) {
    harness::ExperimentResult R = harness::runPlan(Plan, Jobs);
    EXPECT_FALSE(R.ok()) << Jobs;
    ASSERT_EQ(R.Quarantine.size(), 1u) << Jobs;
    EXPECT_EQ(R.Quarantine[0].CellIndex, 1u) << Jobs;
    EXPECT_TRUE(R.Cells[1].Failed) << Jobs;
    EXPECT_EQ(R.Cells[1].Error, "bad tuning") << Jobs;
    ASSERT_TRUE(R.Cells[0].Ran && R.Cells[2].Ran) << Jobs;
    EXPECT_FALSE(R.run(0).Replayed) << Jobs;
    EXPECT_TRUE(R.run(2).Replayed) << Jobs;
    EXPECT_EQ(R.run(2).Mem, R.run(0).Mem) << Jobs;
  }
}

TEST(HarnessContainmentTest, CleanRunIsNotQuarantined) {
  harness::ExperimentPlan Plan = tinyJessPlan(1);
  harness::ExperimentResult R = harness::runPlan(Plan, 1);
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.Quarantine.empty());
  ASSERT_TRUE(R.Cells[0].Ran);
}

// A bench binary's exit code: a plan whose cell fails its self-check,
// folded into the binary's failure count, makes exitCode() 1.
TEST(HarnessContainmentTest, ASelfCheckFailureMakesTheBenchExitOne) {
  workloads::WorkloadSpec Bad = *workloads::findWorkload("jess");
  Bad.Name = "jess<corrupted>";
  Bad.Build = [Build = Bad.Build](const workloads::WorkloadConfig &Cfg) {
    workloads::BuiltWorkload W = Build(Cfg);
    W.Expected = W.Expected ? *W.Expected + 1 : 1;
    return W;
  };
  harness::ExperimentPlan Plan = tinyJessPlan(1);
  harness::ExperimentCell Cell = Plan.cells()[0];
  Cell.Spec = &Bad;
  Plan.add(std::move(Cell));

  ASSERT_EQ(bench::failureCount(), 0u);
  EXPECT_TRUE(bench::reportPlanFailures(harness::runPlan(tinyJessPlan(1), 1)));
  EXPECT_EQ(bench::exitCode(), 0);
  EXPECT_FALSE(bench::reportPlanFailures(harness::runPlan(Plan, 2)));
  EXPECT_EQ(bench::failureCount(), 1u);
  EXPECT_EQ(bench::exitCode(), 1);
  bench::failureCount() = 0;
}

} // namespace
