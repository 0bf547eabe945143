//===- tests/journal_test.cpp - Durable run journal and resume ------------===//
//
// The crash-resume contract: every journal line is durable and
// self-describing, a SIGKILL mid-write costs at most the (truncated)
// final line, resuming against an edited plan is refused outright, and a
// resumed run's per-cell records are byte-identical to the uninterrupted
// run's — grafted cells are never re-executed.
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "harness/Journal.h"
#include "harness/JsonReader.h"
#include "harness/JsonWriter.h"
#include "support/FaultInjection.h"
#include "workloads/Runner.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

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

std::string slurp(const std::string &Path) {
  std::ifstream IS(Path);
  std::stringstream SS;
  SS << IS.rdbuf();
  return SS.str();
}

void spit(const std::string &Path, const std::string &Text) {
  std::ofstream OS(Path, std::ios::trunc);
  OS << Text;
}

/// A fabricated cell result with every codec-carried field set to a
/// distinctive value (no two fields equal, doubles non-round).
CellResult syntheticCell() {
  CellResult C;
  C.Ran = true;
  C.Attempts = 2;
  C.Error = "quoted \"err\"\nline2";
  workloads::RunResult &R = C.Run;
  R.CompiledCycles = 111;
  R.Retired = 222;
  R.JitTotalUs = 0.1 + 1.0 / 3.0; // Needs all 17 significant digits.
  R.JitPrefetchUs = 2.25;
  R.ReturnValue = 0xfeedfacecafeull; // > 2^32: full-width round-trip.
  R.SelfCheckOk = false;
  R.Replayed = true;
  R.InterpretUs = 333.125;
  R.Mem.Loads = 1;
  R.Mem.Stores = 2;
  R.Mem.L1LoadMisses = 3;
  R.Mem.L1StoreMisses = 4;
  R.Mem.L2LoadMisses = 5;
  R.Mem.DtlbLoadMisses = 6;
  R.Mem.SwPrefetchesIssued = 7;
  R.Mem.SwPrefetchesCancelled = 8;
  R.Mem.GuardedLoads = 9;
  R.Mem.GuardedLoadFaults = 10;
  R.Mem.CyclesStalledOnLoads = 11;
  R.Exec.Retired = 222;
  R.Exec.PrefetchRelated = 12;
  R.Exec.Calls = 13;
  R.Exec.Allocations = 14;
  R.Exec.GcRuns = 15;
  R.Prefetch.LoopsVisited = 16;
  R.Prefetch.LoopsSkippedSmallTrip = 17;
  R.Prefetch.LoopsNotReached = 18;
  R.Prefetch.LoopsDegraded = 19;
  R.Prefetch.InspectionFaultsInjected = 20;
  R.Prefetch.CodeGen.Prefetches = 21;
  R.Prefetch.CodeGen.SpecLoads = 22;
  R.Sites.push_back({100, 30, 4, 1});
  R.Sites.push_back({200, 0, 0, 0});
  return C;
}

std::string recordJson(const CellResult &C) {
  std::ostringstream OS;
  JsonWriter J(OS);
  writeCellRecordJson(J, C);
  return OS.str();
}

harness::ExperimentPlan tinyPlan(unsigned Cells, const char *Workload) {
  harness::ExperimentPlan Plan;
  for (unsigned I = 0; I != Cells; ++I) {
    harness::ExperimentCell C;
    C.Group = "journal-test";
    C.Spec = workloads::findWorkload(Workload);
    C.Opt.Config.Scale = 0.05;
    C.Opt.Algo = I % 2 ? workloads::Algorithm::InterIntra
                       : workloads::Algorithm::Baseline;
    Plan.add(std::move(C));
  }
  return Plan;
}

// -- Cell-record codec -------------------------------------------------------

TEST(CellRecordCodecTest, RoundTripsEveryField) {
  CellResult Orig = syntheticCell();
  std::string Json = recordJson(Orig);

  std::string Err;
  auto V = JsonValue::parse(Json, &Err);
  ASSERT_NE(V, nullptr) << Err;
  CellResult Back;
  ASSERT_TRUE(parseCellRecord(*V, Back));

  EXPECT_EQ(Back.Ran, Orig.Ran);
  EXPECT_EQ(Back.Attempts, Orig.Attempts);
  EXPECT_EQ(Back.Error, Orig.Error);
  EXPECT_EQ(Back.Run.CompiledCycles, Orig.Run.CompiledCycles);
  EXPECT_EQ(Back.Run.Retired, Orig.Run.Retired);
  EXPECT_EQ(Back.Run.ReturnValue, Orig.Run.ReturnValue);
  EXPECT_EQ(Back.Run.SelfCheckOk, Orig.Run.SelfCheckOk);
  EXPECT_EQ(Back.Run.Replayed, Orig.Run.Replayed);
  EXPECT_EQ(Back.Run.JitTotalUs, Orig.Run.JitTotalUs); // Exact.
  EXPECT_EQ(Back.Run.InterpretUs, Orig.Run.InterpretUs);
  EXPECT_EQ(Back.Run.Mem, Orig.Run.Mem);
  EXPECT_EQ(Back.Run.Sites, Orig.Run.Sites);
  EXPECT_EQ(Back.Run.Exec.Allocations, Orig.Run.Exec.Allocations);
  EXPECT_EQ(Back.Run.Exec.GcRuns, Orig.Run.Exec.GcRuns);
  EXPECT_EQ(Back.Run.Prefetch.LoopsVisited, Orig.Run.Prefetch.LoopsVisited);
  EXPECT_EQ(Back.Run.Prefetch.CodeGen.SpecLoads,
            Orig.Run.Prefetch.CodeGen.SpecLoads);

  // Determinism: parse -> re-serialize is byte-identical. This is what
  // makes resumed reports byte-for-byte equal to uninterrupted ones.
  EXPECT_EQ(recordJson(Back), Json);
}

TEST(CellRecordCodecTest, RejectsNonRecordDocuments) {
  for (const char *Bad : {"[]", "42", "{\"run\":3}"}) {
    auto V = JsonValue::parse(Bad, nullptr);
    ASSERT_NE(V, nullptr) << Bad;
    CellResult C;
    EXPECT_FALSE(parseCellRecord(*V, C)) << Bad;
  }
}

// -- Journal file format -----------------------------------------------------

TEST(RunJournalTest, AppendThenLoadRoundTrips) {
  TempJournal T("journal_roundtrip.jsonl");
  harness::ExperimentPlan Plan = tinyPlan(3, "jess");

  CellResult C0 = syntheticCell();
  CellResult C2 = syntheticCell();
  C2.Run.ReturnValue = 999;
  {
    RunJournal J(T.Path);
    std::string Err;
    ASSERT_TRUE(J.openForAppend(Plan, /*Fresh=*/true, &Err)) << Err;
    J.append(Plan, 0, C0);
    J.append(Plan, 2, C2); // Out of order and sparse: both fine.
  }

  RunJournal J2(T.Path);
  std::vector<std::optional<CellResult>> Rec;
  std::string Err;
  ASSERT_TRUE(J2.load(Plan, Rec, &Err)) << Err;
  ASSERT_EQ(Rec.size(), 3u);
  ASSERT_TRUE(Rec[0].has_value());
  EXPECT_FALSE(Rec[1].has_value());
  ASSERT_TRUE(Rec[2].has_value());
  EXPECT_EQ(recordJson(*Rec[0]), recordJson(C0));
  EXPECT_EQ(Rec[2]->Run.ReturnValue, 999u);
}

TEST(RunJournalTest, MissingFileIsAnEmptyJournal) {
  TempJournal T("journal_missing.jsonl");
  harness::ExperimentPlan Plan = tinyPlan(2, "jess");
  RunJournal J(T.Path);
  std::vector<std::optional<CellResult>> Rec;
  std::string Err;
  ASSERT_TRUE(J.load(Plan, Rec, &Err)) << Err;
  ASSERT_EQ(Rec.size(), 2u);
  EXPECT_FALSE(Rec[0].has_value());
  EXPECT_FALSE(Rec[1].has_value());
}

TEST(RunJournalTest, RefusesAJournalOfADifferentPlan) {
  TempJournal T("journal_mismatch.jsonl");
  harness::ExperimentPlan Plan = tinyPlan(2, "jess");
  {
    RunJournal J(T.Path);
    std::string Err;
    ASSERT_TRUE(J.openForAppend(Plan, /*Fresh=*/true, &Err)) << Err;
    J.append(Plan, 0, syntheticCell());
  }

  // Same size, different cells: the plan hash must differ and load must
  // refuse — grafting cell I of one plan onto cell I of another would
  // silently corrupt the report.
  harness::ExperimentPlan Other = tinyPlan(2, "db");
  EXPECT_NE(journalPlanHash(Plan), journalPlanHash(Other));
  RunJournal J2(T.Path);
  std::vector<std::optional<CellResult>> Rec;
  std::string Err;
  EXPECT_FALSE(J2.load(Other, Rec, &Err));
  EXPECT_NE(Err.find("plan"), std::string::npos) << Err;
}

TEST(RunJournalTest, ToleratesATruncatedFinalLine) {
  TempJournal T("journal_truncated.jsonl");
  harness::ExperimentPlan Plan = tinyPlan(2, "jess");
  {
    RunJournal J(T.Path);
    std::string Err;
    ASSERT_TRUE(J.openForAppend(Plan, /*Fresh=*/true, &Err)) << Err;
    J.append(Plan, 0, syntheticCell());
    J.append(Plan, 1, syntheticCell());
  }

  // Chop the file mid-way through the last line (SIGKILL mid-write).
  std::string Text = slurp(T.Path);
  size_t LastLine = Text.rfind("{\"key\"");
  ASSERT_NE(LastLine, std::string::npos);
  spit(T.Path, Text.substr(0, LastLine + 25));

  RunJournal J2(T.Path);
  std::vector<std::optional<CellResult>> Rec;
  std::string Err;
  ASSERT_TRUE(J2.load(Plan, Rec, &Err)) << Err;
  ASSERT_EQ(Rec.size(), 2u);
  EXPECT_TRUE(Rec[0].has_value());  // The durable record survived.
  EXPECT_FALSE(Rec[1].has_value()); // The torn one is dropped.
}

TEST(RunJournalTest, RejectsACorruptInteriorLine) {
  TempJournal T("journal_corrupt.jsonl");
  harness::ExperimentPlan Plan = tinyPlan(2, "jess");
  {
    RunJournal J(T.Path);
    std::string Err;
    ASSERT_TRUE(J.openForAppend(Plan, /*Fresh=*/true, &Err)) << Err;
    J.append(Plan, 0, syntheticCell());
    J.append(Plan, 1, syntheticCell());
  }

  // Corrupt the *first* record while the second stays intact: this is
  // not a torn tail, it is real corruption, and resuming from it must
  // fail loudly rather than silently re-run cell 0.
  std::string Text = slurp(T.Path);
  size_t First = Text.find("{\"key\"");
  ASSERT_NE(First, std::string::npos);
  Text[First] = '#';
  spit(T.Path, Text);

  RunJournal J2(T.Path);
  std::vector<std::optional<CellResult>> Rec;
  std::string Err;
  EXPECT_FALSE(J2.load(Plan, Rec, &Err));
  EXPECT_FALSE(Err.empty());
}

// -- Resume through runPlan --------------------------------------------------

TEST(JournalResumeTest, ResumedRunGraftsWithoutReexecuting) {
  TempJournal T("journal_resume.jsonl");
  harness::ExperimentPlan Plan = tinyPlan(4, "jess");

  RunPlanOptions Opts;
  Opts.Journal.Path = T.Path;
  harness::ExperimentResult First = harness::runPlan(Plan, 2, Opts);
  ASSERT_TRUE(First.ok());
  EXPECT_EQ(First.JournalAppended, 4u);
  EXPECT_EQ(First.JournalGrafted, 0u);

  Opts.Journal.Resume = true;
  harness::ExperimentResult Second = harness::runPlan(Plan, 2, Opts);
  ASSERT_TRUE(Second.ok());
  EXPECT_EQ(Second.JournalGrafted, 4u);
  EXPECT_EQ(Second.JournalAppended, 0u);

  // Byte-identical per-cell records — including the wall-clock fields,
  // which a re-execution could never reproduce exactly. This is the
  // proof the grafted cells were not re-run.
  ASSERT_EQ(Second.Cells.size(), First.Cells.size());
  for (unsigned I = 0; I != First.Cells.size(); ++I)
    EXPECT_EQ(recordJson(Second.Cells[I]), recordJson(First.Cells[I]))
        << "cell " << I;
}

TEST(JournalResumeTest, PartialJournalRunsOnlyTheMissingCells) {
  TempJournal T("journal_partial.jsonl");
  harness::ExperimentPlan Plan = tinyPlan(4, "jess");

  // Simulate an interrupted run: journal cells 0 and 2 only, with
  // sentinel wall-clock values no real run would produce.
  harness::RunPlanOptions Probe;
  harness::ExperimentResult Full = harness::runPlan(Plan, 1, Probe);
  ASSERT_TRUE(Full.ok());
  {
    RunJournal J(T.Path);
    std::string Err;
    ASSERT_TRUE(J.openForAppend(Plan, /*Fresh=*/true, &Err)) << Err;
    CellResult C0 = Full.Cells[0];
    C0.Run.InterpretUs = 123456.5; // Sentinel: proves the graft.
    CellResult C2 = Full.Cells[2];
    C2.Run.InterpretUs = 654321.5;
    J.append(Plan, 0, C0);
    J.append(Plan, 2, C2);
  }

  RunPlanOptions Opts;
  Opts.Journal.Path = T.Path;
  Opts.Journal.Resume = true;
  harness::ExperimentResult R = harness::runPlan(Plan, 2, Opts);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.JournalGrafted, 2u);
  EXPECT_EQ(R.JournalAppended, 2u);
  EXPECT_EQ(R.Cells[0].Run.InterpretUs, 123456.5);
  EXPECT_EQ(R.Cells[2].Run.InterpretUs, 654321.5);
  // The re-run cells produced real (simulation-identical) results.
  EXPECT_EQ(R.Cells[1].Run.ReturnValue, Full.Cells[1].Run.ReturnValue);
  EXPECT_EQ(R.Cells[3].Run.ReturnValue, Full.Cells[3].Run.ReturnValue);

  // The journal is now complete: one more resume re-runs nothing.
  harness::ExperimentResult R2 = harness::runPlan(Plan, 2, Opts);
  EXPECT_EQ(R2.JournalGrafted, 4u);
  EXPECT_EQ(R2.JournalAppended, 0u);
}

// -- Degraded durability (injected ENOSPC/EIO) -------------------------------

TEST(JournalDegradedTest, FailedAppendIsCountedAndTheJournalStaysLoadable) {
  TempJournal T("journal_degraded_write.jsonl");
  harness::ExperimentPlan Plan = tinyPlan(3, "jess");
  RunJournal J(T.Path);
  std::string Err;
  ASSERT_TRUE(J.openForAppend(Plan, /*Fresh=*/true, &Err)) << Err;
  EXPECT_FALSE(J.degraded());

  // Every injected write fails (both the attempt and the retry), so the
  // record is dropped — counted, latched, never fatal.
  auto C = support::FaultConfig::parse("disk-write:1:5");
  ASSERT_TRUE(C.has_value());
  support::FaultInjector Inj(*C);
  {
    support::FaultScope Scope(Inj);
    J.append(Plan, 0, syntheticCell());
  }
  EXPECT_TRUE(J.degraded());
  EXPECT_EQ(J.appendFailures(), 1u);
  EXPECT_EQ(J.syncFailures(), 0u);

  // Outside the fault scope appends work again; the degraded latch stays.
  J.append(Plan, 1, syntheticCell());
  EXPECT_TRUE(J.degraded());
  EXPECT_EQ(J.appendFailures(), 1u);

  // The journal holds exactly the records that really landed.
  RunJournal J2(T.Path);
  std::vector<std::optional<CellResult>> Rec;
  ASSERT_TRUE(J2.load(Plan, Rec, &Err)) << Err;
  EXPECT_FALSE(Rec[0].has_value()); // Dropped: --resume re-runs it.
  EXPECT_TRUE(Rec[1].has_value());
  EXPECT_FALSE(Rec[2].has_value());
}

TEST(JournalDegradedTest, FailedFsyncCountsButKeepsTheRecord) {
  TempJournal T("journal_degraded_sync.jsonl");
  harness::ExperimentPlan Plan = tinyPlan(1, "jess");
  RunJournal J(T.Path);
  std::string Err;
  ASSERT_TRUE(J.openForAppend(Plan, /*Fresh=*/true, &Err)) << Err;

  auto C = support::FaultConfig::parse("disk-sync:1:6");
  ASSERT_TRUE(C.has_value());
  support::FaultInjector Inj(*C);
  {
    support::FaultScope Scope(Inj);
    J.append(Plan, 0, syntheticCell());
  }
  EXPECT_TRUE(J.degraded());
  EXPECT_EQ(J.appendFailures(), 0u);
  EXPECT_EQ(J.syncFailures(), 1u);

  // The write itself succeeded: the record is in the file.
  RunJournal J2(T.Path);
  std::vector<std::optional<CellResult>> Rec;
  ASSERT_TRUE(J2.load(Plan, Rec, &Err)) << Err;
  EXPECT_TRUE(Rec[0].has_value());
}

TEST(JournalDegradedTest, ChaosAppendsDegradeTheSweepWithoutFailingIt) {
  // Through runPlan: with disk-write chaos at rate 1, every append drops.
  // The sweep completes clean, reports the degradation, and a resume
  // without chaos re-runs everything the journal lost.
  setenv("SPF_FAULTS", "disk-write:1:41", 1);
  TempJournal T("journal_chaos.jsonl");
  harness::ExperimentPlan Plan = tinyPlan(3, "jess");
  RunPlanOptions Opts;
  Opts.Journal.Path = T.Path;
  harness::ExperimentResult R = harness::runPlan(Plan, 2, Opts);
  unsetenv("SPF_FAULTS");

  EXPECT_TRUE(R.ok()) << (R.Failures.empty() ? "" : R.Failures[0]);
  EXPECT_TRUE(R.JournalDegraded);
  EXPECT_EQ(R.JournalAppendFailures, 3u);
  EXPECT_EQ(R.JournalAppended, 0u); // Nothing actually landed.
  for (const CellResult &Cell : R.Cells)
    EXPECT_TRUE(Cell.Ran); // The cells themselves were untouched.

  Opts.Journal.Resume = true;
  harness::ExperimentResult R2 = harness::runPlan(Plan, 2, Opts);
  EXPECT_TRUE(R2.ok());
  EXPECT_EQ(R2.JournalGrafted, 0u); // The chaos run journaled nothing...
  EXPECT_EQ(R2.JournalAppended, 3u); // ...so the resume re-runs and lands.
  EXPECT_FALSE(R2.JournalDegraded);
}

} // namespace
