//===- tests/isolate_test.cpp - Supervised (out-of-process) cells ---------===//
//
// The isolation contract, tested against this binary itself: the test
// executable doubles as its own worker (custom main below dispatches the
// hidden --run-cell protocol before gtest starts), exactly like the
// bench binaries do. Locks the tentpole invariants: supervised per-cell
// statistics are bit-identical to in-process execution at any worker
// count, injected worker crashes are quarantined without failing the
// sweep or perturbing surviving cells, and a wedged worker is SIGKILLed
// at the supervisor deadline.
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "harness/Journal.h"
#include "harness/JsonWriter.h"
#include "harness/Subprocess.h"
#include "harness/Supervisor.h"
#include "support/Process.h"
#include "workloads/Runner.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <sstream>
#include <string>

using namespace spf;
using namespace spf::harness;

namespace {

int GArgc = 0;
char **GArgv = nullptr;

/// The fixed plan this binary runs — both as supervisor (tests) and as
/// worker (main() dispatch). Must be deterministic: the worker re-execs
/// this binary and rebuilds it from scratch.
const ExperimentPlan &testPlan() {
  static const ExperimentPlan Plan = [] {
    ExperimentPlan P;
    for (const char *Name : {"jess", "db"})
      for (workloads::Algorithm Algo :
           {workloads::Algorithm::Baseline, workloads::Algorithm::InterIntra}) {
        ExperimentCell C;
        C.Group = "isolate-test";
        C.Spec = workloads::findWorkload(Name);
        C.Opt.Config.Scale = 0.05;
        C.Opt.Algo = Algo;
        P.add(std::move(C));
      }
    return P;
  }();
  return Plan;
}

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

RunPlanOptions isolatedOpts() {
  RunPlanOptions Opts;
  Opts.Isolate.Enabled = true;
  const std::string Self = support::selfExecutablePath(GArgv[0]);
  Opts.Isolate.WorkerCommand = [Self](unsigned Cell, unsigned Attempt) {
    return workerArgv(Self, GArgc, GArgv, /*PlanSeq=*/0, Cell, Attempt);
  };
  return Opts;
}

/// The deterministic (simulation-side) half of a cell result — everything
/// except wall-clock bookkeeping, execution sharing (supervised cells
/// always run alone) and the attempt count (retries change how often a
/// cell ran, never what it computed), serialized for exact comparison.
std::string deterministicFields(const CellResult &C) {
  CellResult N = C;
  N.Run.JitTotalUs = N.Run.JitPrefetchUs = 0;
  N.Run.InterpretUs = 0;
  N.Run.Replayed = false;
  N.Attempts = 0;
  std::ostringstream OS;
  JsonWriter J(OS);
  writeCellRecordJson(J, N);
  return OS.str();
}

// -- Supervised == in-process ------------------------------------------------

TEST(IsolateTest, SupervisedStatsAreBitIdenticalToInProcess) {
  ScopedEnv F("SPF_FAULTS", nullptr);
  ScopedEnv T("SPF_CELL_TIMEOUT", nullptr);
  const ExperimentPlan &Plan = testPlan();

  RunPlanOptions Direct;
  ExperimentResult InProc = runPlan(Plan, 1, Direct);
  ASSERT_TRUE(InProc.ok());

  for (unsigned Jobs : {1u, 8u}) {
    ExperimentResult Sup = runPlan(Plan, Jobs, isolatedOpts());
    ASSERT_TRUE(Sup.ok()) << (Sup.Failures.empty() ? "" : Sup.Failures[0]);
    EXPECT_TRUE(Sup.Isolated);
    ASSERT_EQ(Sup.Cells.size(), InProc.Cells.size());
    for (unsigned I = 0; I != Plan.size(); ++I) {
      ASSERT_TRUE(Sup.Cells[I].Ran) << "jobs=" << Jobs << " cell " << I;
      EXPECT_EQ(Sup.Cells[I].Attempts, InProc.Cells[I].Attempts)
          << "jobs=" << Jobs << " cell " << I;
      EXPECT_EQ(deterministicFields(Sup.Cells[I]),
                deterministicFields(InProc.Cells[I]))
          << "jobs=" << Jobs << " cell " << I;
    }
    EXPECT_TRUE(Sup.Quarantine.empty());
  }
}

// -- Crash containment -------------------------------------------------------

TEST(IsolateTest, InjectedCrashIsQuarantinedWithTheSignal) {
  ScopedEnv F("SPF_FAULTS", "crash:1:7"); // Every attempt aborts.
  ScopedEnv T("SPF_CELL_TIMEOUT", nullptr);
  const ExperimentPlan &Plan = testPlan();

  ExperimentResult R = runPlan(Plan, 2, isolatedOpts());

  // Contained crashes are chaos working as intended: quarantined with
  // the signal on record, bounded retries, and a clean exit.
  EXPECT_TRUE(R.ok()) << (R.Failures.empty() ? "" : R.Failures[0]);
  ASSERT_EQ(R.Quarantine.size(), Plan.size());
  for (unsigned I = 0; I != Plan.size(); ++I) {
    EXPECT_FALSE(R.Cells[I].Ran);
    EXPECT_TRUE(R.Cells[I].Crashed);
    EXPECT_EQ(R.Cells[I].Signal, SIGABRT);
    EXPECT_EQ(R.Cells[I].Attempts, 3u); // Same bound as transients.
    EXPECT_EQ(R.Quarantine[I].Kind, "crashed");
    EXPECT_EQ(R.Quarantine[I].Signal, SIGABRT);
  }

  // The report records the crash verdicts.
  std::ostringstream OS;
  writeJsonReport(OS, Plan, R, 0.05, 2);
  std::string S = OS.str();
  EXPECT_NE(S.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(S.find("\"kind\":\"crashed\""), std::string::npos);
  EXPECT_NE(S.find("\"isolated\":true"), std::string::npos);
}

TEST(IsolateTest, CrashSurvivorsMatchTheCleanRun) {
  // Rate 0.5: with this seed some cells crash a first attempt and then
  // survive a retry (deterministic — the injector stream is seeded).
  // Every surviving cell's statistics must equal the clean run's: the
  // crash site fires before execution starts, so a retry that gets past
  // it runs the untouched simulation.
  ScopedEnv T("SPF_CELL_TIMEOUT", nullptr);
  const ExperimentPlan &Plan = testPlan();

  RunPlanOptions Direct;
  ExperimentResult Clean;
  {
    ScopedEnv F("SPF_FAULTS", nullptr);
    Clean = runPlan(Plan, 1, Direct);
  }
  ASSERT_TRUE(Clean.ok());

  ScopedEnv F("SPF_FAULTS", "crash:0.5:31");
  ExperimentResult Chaos = runPlan(Plan, 2, isolatedOpts());
  EXPECT_TRUE(Chaos.ok());

  bool SawRetriedSurvivor = false;
  for (unsigned I = 0; I != Plan.size(); ++I) {
    if (!Chaos.Cells[I].Ran)
      continue; // Crashed out entirely: quarantined, not compared.
    if (Chaos.Cells[I].Attempts > 1)
      SawRetriedSurvivor = true;
    EXPECT_EQ(deterministicFields(Chaos.Cells[I]),
              deterministicFields(Clean.Cells[I]))
        << "cell " << I;
  }
  EXPECT_TRUE(SawRetriedSurvivor); // Seed 31 crashes at least one first try.
}

TEST(IsolateTest, InProcessRunsNeverEvaluateTheCrashSite) {
  // The crash site is armed only inside workers: the same SPF_FAULTS
  // spec on an in-process plan must run every cell normally.
  ScopedEnv F("SPF_FAULTS", "crash:1:7");
  ScopedEnv T("SPF_CELL_TIMEOUT", nullptr);
  RunPlanOptions Direct;
  ExperimentResult R = runPlan(testPlan(), 2, Direct);
  EXPECT_TRUE(R.ok());
  for (const CellResult &C : R.Cells) {
    EXPECT_TRUE(C.Ran);
    EXPECT_FALSE(C.Crashed);
  }
}

// -- Supervisor deadline -----------------------------------------------------

TEST(IsolateTest, WedgedWorkerIsKilledAtTheDeadline) {
  // A worker that never even starts the protocol (plain sleep) must be
  // SIGKILLed by the supervisor-side deadline — containment without any
  // cooperation from the worker.
  support::WorkerLimits Limits;
  SpawnOutcome O =
      runWorkerProcess({"/bin/sh", "-c", "sleep 30"}, Limits, 0.5);
  EXPECT_FALSE(O.SpawnFailed) << O.SpawnError;
  EXPECT_TRUE(O.DeadlineKilled);
  EXPECT_EQ(O.Signal, SIGKILL);
}

TEST(IsolateTest, WorkerExitAndPipeOutputAreCaptured) {
  support::WorkerLimits Limits;
  SpawnOutcome O = runWorkerProcess(
      {"/bin/sh", "-c", "echo payload >&3; exit 7"}, Limits, 10.0);
  EXPECT_FALSE(O.SpawnFailed) << O.SpawnError;
  EXPECT_FALSE(O.DeadlineKilled);
  EXPECT_EQ(O.ExitCode, 7);
  EXPECT_EQ(O.Signal, 0);
  EXPECT_NE(O.Output.find("payload"), std::string::npos);
}

TEST(IsolateTest, AddressSpaceLimitContainsARunawayWorker) {
  // RLIMIT_AS is applied in the child: a worker that tries to allocate
  // past the cap dies (abort on bad_alloc or OOM signal) instead of
  // taking the machine down. sh + dd keeps this dependency-free.
  support::WorkerLimits Limits;
  Limits.MemBytes = 64ull << 20;
  SpawnOutcome O = runWorkerProcess(
      {"/bin/sh", "-c",
       "dd if=/dev/zero of=/dev/null bs=256M count=1 2>/dev/null"},
      Limits, 30.0);
  EXPECT_FALSE(O.SpawnFailed) << O.SpawnError;
  // dd cannot materialize a 256M buffer under a 64M cap: it either exits
  // nonzero or dies on a signal — anything but success.
  EXPECT_TRUE(O.ExitCode != 0 || O.Signal != 0);
}

// -- Worker protocol ---------------------------------------------------------

TEST(WorkerProtocolTest, ParseRoundTripsThroughWorkerArgv) {
  const std::string Self = support::selfExecutablePath(GArgv[0]);
  std::vector<std::string> Argv =
      workerArgv(Self, GArgc, GArgv, /*PlanSeq=*/2, /*Cell=*/17,
                 /*Attempt=*/1);
  std::vector<char *> CArgv;
  for (std::string &S : Argv)
    CArgv.push_back(S.data());
  auto Req =
      parseWorkerRequest(static_cast<int>(CArgv.size()), CArgv.data());
  ASSERT_TRUE(Req.has_value());
  EXPECT_EQ(Req->PlanSeq, 2u);
  EXPECT_EQ(Req->Cell, 17u);
  EXPECT_EQ(Req->Attempt, 1u);
  EXPECT_EQ(Req->ResultFd, WorkerResultFd);
}

TEST(WorkerProtocolTest, PlainInvocationIsNotAWorker) {
  EXPECT_FALSE(parseWorkerRequest(GArgc, GArgv).has_value());
}

} // namespace

/// Custom main: worker dispatch first (this is exactly what the bench
/// binaries' init()/runPlanCli() do), then gtest. Linked against
/// GTest::gtest only — gtest_main would swallow the worker protocol.
int main(int argc, char **argv) {
  GArgc = argc;
  GArgv = argv;
  if (auto Req = parseWorkerRequest(argc, argv)) {
    runCellWorker(testPlan(), *Req); // Does not return.
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
