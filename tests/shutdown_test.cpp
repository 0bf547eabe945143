//===- tests/shutdown_test.cpp - Graceful shutdown and sweep deadlines ----===//
//
// The resource-governance contract: any stop source (shutdown signal,
// global sweep deadline, external stop) turns a running sweep into a
// *valid partial result* — finished cells are real and journaled,
// unfinished ones are quarantined "skipped" and never journaled, and a
// --resume of the same journal completes the sweep with per-cell records
// byte-identical to an uninterrupted run.
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "harness/Journal.h"
#include "harness/JsonWriter.h"
#include "support/Shutdown.h"
#include "workloads/Runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <csignal>
#include <sstream>
#include <string>

using namespace spf;
using namespace spf::harness;

namespace {

/// A scratch journal path, removed on destruction.
struct TempJournal {
  std::string Path;
  explicit TempJournal(const char *Name)
      : Path(std::string(::testing::TempDir()) + Name) {
    std::remove(Path.c_str());
  }
  ~TempJournal() { std::remove(Path.c_str()); }
};

harness::ExperimentPlan tinyPlan(unsigned Cells) {
  harness::ExperimentPlan Plan;
  for (unsigned I = 0; I != Cells; ++I) {
    harness::ExperimentCell C;
    C.Group = "shutdown-test";
    C.Spec = workloads::findWorkload("jess");
    C.Opt.Config.Scale = 0.05;
    C.Opt.Algo = I % 2 ? workloads::Algorithm::InterIntra
                       : workloads::Algorithm::Baseline;
    Plan.add(std::move(C));
  }
  return Plan;
}

std::string recordJson(const CellResult &C) {
  std::ostringstream OS;
  JsonWriter J(OS);
  writeCellRecordJson(J, C);
  return OS.str();
}

// -- The latch itself --------------------------------------------------------

TEST(ShutdownLatchTest, RequestAndResetRoundTrip) {
  support::resetShutdownForTests();
  EXPECT_FALSE(support::shutdownRequested());
  EXPECT_EQ(support::shutdownSignal(), 0);

  support::requestShutdown(SIGTERM);
  EXPECT_TRUE(support::shutdownRequested());
  EXPECT_EQ(support::shutdownSignal(), SIGTERM);

  support::resetShutdownForTests();
  EXPECT_FALSE(support::shutdownRequested());
}

// -- Deterministic interruption via ExternalStop -----------------------------

TEST(GovernorTest, ExternalStopYieldsAValidPartialResult) {
  support::resetShutdownForTests();
  harness::ExperimentPlan Plan = tinyPlan(6);

  // Serial run with a stop that fires on its second poll: the governor
  // polls once per execution group at admission, so the first group (the
  // three BASELINE cells, one shared execution) runs for real and the
  // INTER+INTRA group is skipped — deterministically, because at Jobs=1
  // the poll order is the plan order.
  RunPlanOptions Opts;
  unsigned Polls = 0;
  Opts.Governor.ExternalStop = [&Polls]() mutable { return ++Polls > 1; };
  harness::ExperimentResult R = harness::runPlan(Plan, 1, Opts);

  EXPECT_TRUE(R.Interrupted);
  EXPECT_EQ(R.InterruptReason, "external stop");
  EXPECT_TRUE(R.ok()) << (R.Failures.empty() ? "" : R.Failures[0]);
  EXPECT_GT(R.CellsSkipped, 0u);
  EXPECT_LT(R.CellsSkipped, 6u); // At least one cell really ran.

  unsigned SkippedQuarantines = 0;
  for (const QuarantineRecord &Q : R.Quarantine)
    if (Q.Kind == "skipped") {
      ++SkippedQuarantines;
      EXPECT_FALSE(R.Cells[Q.CellIndex].Ran);
      EXPECT_TRUE(R.Cells[Q.CellIndex].Skipped);
    }
  EXPECT_EQ(SkippedQuarantines, R.CellsSkipped);

  // The report is valid and marked interrupted.
  std::ostringstream OS;
  writeJsonReport(OS, Plan, R, 0.05, 1);
  std::string S = OS.str();
  EXPECT_NE(S.find("\"interrupted\":true"), std::string::npos);
  EXPECT_NE(S.find("\"interrupt_reason\":\"external stop\""),
            std::string::npos);
  EXPECT_NE(S.find("\"kind\":\"skipped\""), std::string::npos);
}

TEST(GovernorTest, EpochGcCellsStillYieldValidPartialResults) {
  // Multi-epoch cells with a perturbing GC variant and the prefetch-
  // health governor spend much of their time inside boundary collections
  // and re-decisions; a stop request must still turn the sweep into a
  // valid partial result (the GC checkpoint and the admission polls
  // keep firing through the new variant phases; governed cells never
  // share, so every cell is its own poll).
  support::resetShutdownForTests();
  harness::ExperimentPlan Plan = tinyPlan(4);
  for (harness::ExperimentCell &C : Plan.cells()) {
    C.Opt.Epochs = 3;
    C.Opt.GcVariant = vm::GcVariant::AddressShuffle;
    C.Opt.Governor = true;
  }

  RunPlanOptions Opts;
  unsigned Polls = 0;
  Opts.Governor.ExternalStop = [&Polls]() mutable { return ++Polls > 2; };
  harness::ExperimentResult R = harness::runPlan(Plan, 1, Opts);

  EXPECT_TRUE(R.Interrupted);
  EXPECT_TRUE(R.ok()) << (R.Failures.empty() ? "" : R.Failures[0]);
  EXPECT_GT(R.CellsSkipped, 0u);
  EXPECT_LT(R.CellsSkipped, 4u);
  // The cell that did run completed all of its epochs and its boundary
  // collections.
  ASSERT_TRUE(R.Cells[0].Ran);
  EXPECT_EQ(R.Cells[0].Run.Epochs, 3u);
  EXPECT_GE(R.Cells[0].Run.GcCollections, 2u);
}

TEST(GovernorTest, UninterruptedRunIsNotMarkedInterrupted) {
  support::resetShutdownForTests();
  harness::ExperimentPlan Plan = tinyPlan(2);
  RunPlanOptions Opts;
  Opts.Governor.Graceful = true;
  Opts.Governor.SweepDeadlineSec = 3600.0; // Far away.
  harness::ExperimentResult R = harness::runPlan(Plan, 2, Opts);
  EXPECT_FALSE(R.Interrupted);
  EXPECT_EQ(R.CellsSkipped, 0u);
  EXPECT_TRUE(R.ok());
}

// -- The graceful-shutdown latch through runPlan -----------------------------

TEST(GovernorTest, LatchedShutdownSignalSkipsEveryCell) {
  support::resetShutdownForTests();
  support::requestShutdown(SIGTERM);
  harness::ExperimentPlan Plan = tinyPlan(3);
  RunPlanOptions Opts;
  Opts.Governor.Graceful = true;
  harness::ExperimentResult R = harness::runPlan(Plan, 2, Opts);
  support::resetShutdownForTests();

  EXPECT_TRUE(R.Interrupted);
  EXPECT_EQ(R.InterruptReason, "signal 15");
  EXPECT_EQ(R.CellsSkipped, 3u);
  EXPECT_TRUE(R.ok()); // Skipped cells are not failures.
  for (const CellResult &C : R.Cells) {
    EXPECT_FALSE(C.Ran);
    EXPECT_TRUE(C.Skipped);
  }
}

TEST(GovernorTest, UngovernedRunIgnoresTheLatch) {
  // Library users who don't opt in (Graceful=false, no deadline) keep the
  // old semantics even if some signal latched the process flag.
  support::resetShutdownForTests();
  support::requestShutdown(SIGTERM);
  harness::ExperimentPlan Plan = tinyPlan(1);
  RunPlanOptions Opts;
  harness::ExperimentResult R = harness::runPlan(Plan, 1, Opts);
  support::resetShutdownForTests();
  EXPECT_FALSE(R.Interrupted);
  EXPECT_TRUE(R.Cells[0].Ran);
}

// -- A tiny sweep deadline ---------------------------------------------------

TEST(GovernorTest, ExpiredSweepDeadlineSkipsAdmission) {
  support::resetShutdownForTests();
  harness::ExperimentPlan Plan = tinyPlan(3);
  RunPlanOptions Opts;
  // Deadline so small it expires before the first admission check.
  Opts.Governor.SweepDeadlineSec = 1e-9;
  harness::ExperimentResult R = harness::runPlan(Plan, 2, Opts);
  EXPECT_TRUE(R.Interrupted);
  EXPECT_EQ(R.InterruptReason, "sweep deadline");
  EXPECT_EQ(R.CellsSkipped, 3u);
  EXPECT_TRUE(R.ok());
}

// -- Interrupt + journal + resume = byte-identical completion ----------------

TEST(GovernorResumeTest, ResumeCompletesAnInterruptedJournalByteIdentically) {
  support::resetShutdownForTests();
  TempJournal T("shutdown_resume.jsonl");
  harness::ExperimentPlan Plan = tinyPlan(6);

  // Reference: the uninterrupted run (no journal, same plan).
  RunPlanOptions Ref;
  harness::ExperimentResult Full = harness::runPlan(Plan, 1, Ref);
  ASSERT_TRUE(Full.ok());

  // Interrupted journaled run: stop after one admission (the BASELINE
  // group; the INTER+INTRA group is skipped).
  {
    RunPlanOptions Opts;
    Opts.Journal.Path = T.Path;
    unsigned Admitted = 0;
    Opts.Governor.ExternalStop = [&Admitted]() mutable {
      return ++Admitted > 1;
    };
    harness::ExperimentResult Part = harness::runPlan(Plan, 1, Opts);
    ASSERT_TRUE(Part.Interrupted);
    ASSERT_GT(Part.CellsSkipped, 0u);
    // Skipped cells are NOT journaled — that is what makes resume re-run
    // them rather than grafting a hole.
    EXPECT_EQ(Part.JournalAppended + Part.CellsSkipped, 6u);
  }

  // Resume: grafts the finished cells, runs only the skipped ones.
  RunPlanOptions Res;
  Res.Journal.Path = T.Path;
  Res.Journal.Resume = true;
  harness::ExperimentResult Done = harness::runPlan(Plan, 2, Res);
  ASSERT_TRUE(Done.ok());
  EXPECT_FALSE(Done.Interrupted);
  EXPECT_GT(Done.JournalGrafted, 0u);
  EXPECT_EQ(Done.JournalGrafted + Done.JournalAppended, 6u);

  // Simulation-identical to the uninterrupted run, cell for cell. (The
  // wall-clock fields of *re-run* cells legitimately differ, so compare
  // the deterministic fields, not raw record bytes, for those.)
  for (unsigned I = 0; I != 6; ++I) {
    EXPECT_EQ(Done.Cells[I].Ran, Full.Cells[I].Ran) << I;
    EXPECT_EQ(Done.run(I).ReturnValue, Full.run(I).ReturnValue) << I;
    EXPECT_EQ(Done.run(I).Retired, Full.run(I).Retired) << I;
    EXPECT_EQ(Done.run(I).Mem, Full.run(I).Mem) << I;
    EXPECT_EQ(Done.run(I).Sites, Full.run(I).Sites) << I;
  }

  // And a second resume grafts everything: the per-cell records are now
  // frozen in the journal, so they reproduce byte-for-byte.
  harness::ExperimentResult Again = harness::runPlan(Plan, 2, Res);
  EXPECT_EQ(Again.JournalGrafted, 6u);
  EXPECT_EQ(Again.JournalAppended, 0u);
  for (unsigned I = 0; I != 6; ++I)
    EXPECT_EQ(recordJson(Again.Cells[I]), recordJson(Done.Cells[I])) << I;
}

} // namespace
