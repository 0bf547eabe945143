//===- tests/stream_test.cpp - Streaming aggregation bit-identity ---------===//
//
// The streaming contract (StreamOptions): admitting cells through a
// bounded window, retiring them in plan order, streaming each record to
// --cells-out, and folding the heavy per-cell payloads must leave the
// JSON report *bit-identical* to the unstreamed in-memory path — while
// holding peak resident cells at O(jobs) instead of O(plan).
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "harness/Journal.h"
#include "harness/JsonReader.h"
#include "support/Shutdown.h"
#include "workloads/Runner.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

using namespace spf;
using namespace spf::harness;

namespace {

struct TempFile {
  std::string Path;
  explicit TempFile(const char *Name)
      : Path(std::string(::testing::TempDir()) + Name) {
    std::remove(Path.c_str());
  }
  ~TempFile() { std::remove(Path.c_str()); }
};

harness::ExperimentPlan mediumPlan(unsigned Cells) {
  harness::ExperimentPlan Plan;
  const char *Names[] = {"jess", "db", "mtrt"};
  for (unsigned I = 0; I != Cells; ++I) {
    harness::ExperimentCell C;
    C.Group = "stream-test";
    C.Spec = workloads::findWorkload(Names[I % 3]);
    C.Opt.Config.Scale = 0.05;
    C.Opt.Algo = I % 2 ? workloads::Algorithm::InterIntra
                       : workloads::Algorithm::Baseline;
    Plan.add(std::move(C));
  }
  return Plan;
}

/// Zeroes the wall-clock-only fields no two executions reproduce, so the
/// remaining report bytes are the deterministic simulation payload.
void zeroWallClock(harness::ExperimentResult &R) {
  for (CellResult &C : R.Cells) {
    C.Run.InterpretUs = 0;
    C.Run.Replayed = false;
    C.Run.JitTotalUs = 0;
    C.Run.JitPrefetchUs = 0;
  }
}

/// The report without the trailing obs stats section (counters include
/// process-lifetime totals, so they legitimately differ between two
/// runPlan calls in one process).
std::string reportBody(const harness::ExperimentPlan &Plan,
                       const harness::ExperimentResult &R, unsigned Jobs) {
  std::ostringstream OS;
  writeJsonReport(OS, Plan, R, 0.05, Jobs);
  std::string S = OS.str();
  size_t Stats = S.find(",\"stats\":");
  return Stats == std::string::npos ? S : S.substr(0, Stats);
}

// -- Bit-identity ------------------------------------------------------------

TEST(StreamTest, StreamedReportIsBitIdenticalToInMemory) {
  support::resetShutdownForTests();
  TempFile Cells("stream_cells.jsonl");
  harness::ExperimentPlan Plan = mediumPlan(12);

  RunPlanOptions InMem;
  harness::ExperimentResult A = harness::runPlan(Plan, 3, InMem);
  ASSERT_TRUE(A.ok());

  RunPlanOptions Streamed = InMem;
  Streamed.Stream.Enabled = true;
  Streamed.Stream.CellsOutPath = Cells.Path;
  harness::ExperimentResult B = harness::runPlan(Plan, 3, Streamed);
  ASSERT_TRUE(B.ok());

  zeroWallClock(A);
  zeroWallClock(B);
  EXPECT_EQ(reportBody(Plan, A, 3), reportBody(Plan, B, 3));
}

TEST(StreamTest, FoldOnlyModeNeedsNoSink) {
  // Stream.Enabled with no CellsOutPath: folding still happens, no file
  // is written, the report is still identical.
  support::resetShutdownForTests();
  harness::ExperimentPlan Plan = mediumPlan(6);

  RunPlanOptions InMem;
  harness::ExperimentResult A = harness::runPlan(Plan, 2, InMem);

  RunPlanOptions FoldOnly = InMem;
  FoldOnly.Stream.Enabled = true;
  harness::ExperimentResult B = harness::runPlan(Plan, 2, FoldOnly);
  ASSERT_TRUE(B.ok());
  EXPECT_EQ(B.CellsStreamed, 0u); // No sink: nothing written.

  zeroWallClock(A);
  zeroWallClock(B);
  EXPECT_EQ(reportBody(Plan, A, 2), reportBody(Plan, B, 2));
}

// -- The cells-out stream itself ---------------------------------------------

TEST(StreamTest, CellsOutStreamIsCompleteAndParseable) {
  support::resetShutdownForTests();
  TempFile Cells("stream_parse.jsonl");
  harness::ExperimentPlan Plan = mediumPlan(8);

  RunPlanOptions Opts;
  Opts.Stream.Enabled = true;
  Opts.Stream.CellsOutPath = Cells.Path;
  harness::ExperimentResult R = harness::runPlan(Plan, 2, Opts);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.CellsStreamed, 8u);

  std::ifstream IS(Cells.Path);
  ASSERT_TRUE(IS.good());
  std::string Line;

  // Header: schema, the plan hash (same one the journal uses), count.
  ASSERT_TRUE(std::getline(IS, Line));
  auto Header = JsonValue::parse(Line, nullptr);
  ASSERT_NE(Header, nullptr) << Line;
  EXPECT_EQ(Header->getString("cells_out"), "spf-cells-v1");
  char Hash[24];
  std::snprintf(Hash, sizeof(Hash), "%016llx",
                static_cast<unsigned long long>(journalPlanHash(Plan)));
  EXPECT_EQ(Header->getString("plan_hash"), Hash);
  EXPECT_EQ(Header->getU64("cells"), 8u);

  // One record line per cell, in plan order, each a valid cell record
  // that matches the in-memory result bit for bit.
  for (unsigned I = 0; I != 8; ++I) {
    ASSERT_TRUE(std::getline(IS, Line)) << "cell " << I;
    auto V = JsonValue::parse(Line, nullptr);
    ASSERT_NE(V, nullptr) << Line;
    EXPECT_EQ(V->getU64("cell"), I);
    CellResult Back;
    ASSERT_TRUE(parseCellRecord(V->get("record"), Back)) << I;
    EXPECT_EQ(Back.Run.ReturnValue, R.run(I).ReturnValue) << I;
    EXPECT_EQ(Back.Run.Retired, R.run(I).Retired) << I;
    // The streamed record carries the *full* site table — folding
    // happens after the record is written, never before.
    EXPECT_EQ(Back.Run.Sites.size(), R.Cells[I].FoldedSiteCount) << I;
  }
  EXPECT_FALSE(std::getline(IS, Line)); // Nothing after the last cell.
}

// -- O(jobs) residency -------------------------------------------------------

TEST(StreamTest, PeakResidencyIsBoundedByTheWindowNotThePlan) {
  support::resetShutdownForTests();
  harness::ExperimentPlan Plan = mediumPlan(24);

  RunPlanOptions Opts;
  Opts.Stream.Enabled = true;
  const unsigned Jobs = 2;
  harness::ExperimentResult R = harness::runPlan(Plan, Jobs, Opts);
  ASSERT_TRUE(R.ok());

  // The admission window is max(2*jobs, 4); resident cells can never
  // exceed it. Without streaming the whole plan is resident.
  EXPECT_LE(R.PeakResidentCells, std::max(2 * Jobs, 4u));
  EXPECT_GT(R.PeakResidentCells, 0u);

  harness::ExperimentResult Whole =
      harness::runPlan(Plan, Jobs, RunPlanOptions{});
  EXPECT_EQ(Whole.PeakResidentCells, Plan.size());

  // Folding really freed the heavy payloads.
  for (const CellResult &C : R.Cells) {
    EXPECT_TRUE(C.SitesFolded);
    EXPECT_TRUE(C.Run.Sites.empty());
    EXPECT_TRUE(C.Run.Decisions.empty());
    EXPECT_FALSE(C.FoldedSiteHash.empty());
  }
}

// -- Streaming composes with the journal and the governor --------------------

TEST(StreamTest, StreamingComposesWithJournalResume) {
  support::resetShutdownForTests();
  TempFile J("stream_journal.jsonl");
  TempFile Cells("stream_resume_cells.jsonl");
  harness::ExperimentPlan Plan = mediumPlan(6);

  RunPlanOptions First;
  First.Journal.Path = J.Path;
  First.Stream.Enabled = true;
  harness::ExperimentResult A = harness::runPlan(Plan, 2, First);
  ASSERT_TRUE(A.ok());
  EXPECT_EQ(A.JournalAppended, 6u);

  // Resume with streaming + a sink: grafted cells still stream and fold.
  RunPlanOptions Second = First;
  Second.Journal.Resume = true;
  Second.Stream.CellsOutPath = Cells.Path;
  harness::ExperimentResult B = harness::runPlan(Plan, 2, Second);
  ASSERT_TRUE(B.ok());
  EXPECT_EQ(B.JournalGrafted, 6u);
  EXPECT_EQ(B.CellsStreamed, 6u);
  for (const CellResult &C : B.Cells)
    EXPECT_TRUE(C.SitesFolded);
}

TEST(StreamTest, UnopenableSinkIsAFailureNotACrash) {
  support::resetShutdownForTests();
  harness::ExperimentPlan Plan = mediumPlan(2);
  RunPlanOptions Opts;
  Opts.Stream.Enabled = true;
  Opts.Stream.CellsOutPath = "/nonexistent-dir/cells.jsonl";
  harness::ExperimentResult R = harness::runPlan(Plan, 1, Opts);
  EXPECT_FALSE(R.ok());
  ASSERT_FALSE(R.Failures.empty());
  EXPECT_NE(R.Failures[0].find("cells-out"), std::string::npos)
      << R.Failures[0];
}

} // namespace
