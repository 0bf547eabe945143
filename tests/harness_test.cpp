//===- tests/harness_test.cpp - Parallel experiment driver ----------------===//
//
// The driver's contract: a plan expands in a deterministic order, runs on
// any number of workers, and yields bit-identical per-cell simulator
// statistics regardless of the worker count; correctness failures
// (workload self-checks, baseline mismatches) surface as recorded
// failures rather than stderr-only warnings.
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "harness/JsonWriter.h"
#include "harness/ThreadPool.h"

#include <gtest/gtest.h>

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

TEST(RunPlanSharingTest, FiguresPlanSharesOneExecutionPerSignature) {
  ExperimentPlan Plan = figuresPlan();
  ASSERT_EQ(Plan.size(), 72u);
  std::set<std::string> Signatures;
  for (const ExperimentCell &C : Plan.cells())
    Signatures.insert(executionSignature(*C.Spec, C.Opt));
  // BASELINE is machine-independent; INTER and INTER+INTRA compile for
  // each machine's fill line, so only the 12 BASELINE pairs share.
  ASSERT_EQ(Signatures.size(), 60u);

  for (unsigned Jobs : {1u, 8u}) {
    ExperimentResult R = runPlan(Plan, Jobs);
    EXPECT_TRUE(R.ok()) << (R.Failures.empty() ? "" : R.Failures[0]);
    unsigned Replayed = 0;
    for (unsigned I = 0; I != Plan.size(); ++I) {
      const ExperimentCell &C = Plan.cells()[I];
      ASSERT_TRUE(R.Cells[I].Ran) << I;
      Replayed += R.run(I).Replayed;
      // The follower of each pair is the Athlon MP's BASELINE cell.
      EXPECT_EQ(R.run(I).Replayed, C.Group == "athlonmp" &&
                                       C.Opt.Algo == Algorithm::Baseline)
          << I << " jobs " << Jobs;
      EXPECT_EQ(R.run(I).InterpretUs == 0, R.run(I).Replayed) << I;
    }
    EXPECT_EQ(Replayed, Plan.size() - Signatures.size()) << "jobs " << Jobs;
  }
}

TEST(RunPlanSharingTest, ExecutionFaultSiteDisablesSharing) {
  // Chaos must exercise every cell's own attempts: with an execution
  // fault site armed, no cell shares. The armed site is object
  // inspection, which BASELINE never runs, so every statistic still
  // matches the shared run.
  ExperimentPlan Plan;
  Plan.addSweep({findWorkload("jess")}, {Algorithm::Baseline},
                {*sim::MachineConfig::byName("pentium4"),
                 *sim::MachineConfig::byName("athlonmp")},
                tinyConfig(), "chaos");
  ExperimentResult Shared = runPlan(Plan, 1);
  ASSERT_TRUE(Shared.run(1).Replayed);

  const char *Old = std::getenv("SPF_FAULTS");
  std::string Saved = Old ? Old : "";
  setenv("SPF_FAULTS", "inspect-read:1:1", 1);
  ExperimentResult Solo = runPlan(Plan, 1);
  if (Old)
    setenv("SPF_FAULTS", Saved.c_str(), 1);
  else
    unsetenv("SPF_FAULTS");

  for (unsigned I = 0; I != Plan.size(); ++I) {
    ASSERT_TRUE(Solo.Cells[I].Ran) << I;
    EXPECT_FALSE(Solo.run(I).Replayed) << I;
    EXPECT_GT(Solo.run(I).InterpretUs, 0) << I;
    EXPECT_EQ(Solo.run(I).Mem, Shared.run(I).Mem) << I;
    EXPECT_EQ(Solo.run(I).Sites, Shared.run(I).Sites) << I;
    EXPECT_EQ(Solo.run(I).CompiledCycles, Shared.run(I).CompiledCycles) << I;
  }
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

  EXPECT_NE(S.find("\"schema\":\"spf-sweep-v2\""), std::string::npos);
  EXPECT_NE(S.find("\"jobs\":2"), std::string::npos);
  EXPECT_NE(S.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(S.find("\"group\":\"json\""), std::string::npos);
  EXPECT_NE(S.find("\"workload\":\"jess\""), std::string::npos);
  EXPECT_NE(S.find("\"algorithm\":\"INTER+INTRA\""), std::string::npos);
  EXPECT_NE(S.find("\"ran\":true"), std::string::npos);
  EXPECT_NE(S.find("\"attempts\":1"), std::string::npos);
  EXPECT_NE(S.find("\"guarded_load_faults\":"), std::string::npos);
  EXPECT_NE(S.find("\"failures\":[]"), std::string::npos);
  // Clean run: nothing quarantined.
  EXPECT_NE(S.find("\"quarantine\":[]"), std::string::npos);
  // The recorded cycles round-trip exactly.
  EXPECT_NE(S.find("\"cycles\":" + std::to_string(R.run(0).CompiledCycles)),
            std::string::npos);
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
