//===- tests/obs_test.cpp - Observability subsystem -----------------------===//
//
// Contracts under test: Tracer spans serialize to valid Chrome
// trace_event JSON; the prefetch pipeline records attributable decision
// events for every loop it visits; and arming the tracer never changes
// a run's statistics.
//
//===----------------------------------------------------------------------===//

#include "TestKernels.h"
#include "core/PrefetchPass.h"
#include "harness/Experiment.h"
#include "harness/JsonReader.h"
#include "obs/DecisionLog.h"
#include "opt/Governor.h"
#include "obs/Tracer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

using namespace spf;
using namespace spf::obs;
using namespace spf::testkernels;

namespace {

// -- Tracer -----------------------------------------------------------------

/// Drains the global tracer and disables it, restoring a clean slate for
/// the next test.
struct TracerGuard {
  TracerGuard() {
    Tracer::instance().disable();
    Tracer::instance().drain();
    Tracer::instance().enable();
  }
  ~TracerGuard() {
    Tracer::instance().drain();
    Tracer::instance().disable();
  }
};

TEST(TracerTest, NestedSpansRecordContainedIntervals) {
  TracerGuard G;
  {
    Span Outer("outer", "test");
    Outer.note("k", "v");
    { Span Inner("inner", "test"); }
  }
  std::vector<TraceEvent> Evs = Tracer::instance().drain();
  ASSERT_EQ(Evs.size(), 2u);
  // Spans record at end: the inner one lands first.
  const TraceEvent &Inner = Evs[0], &Outer = Evs[1];
  EXPECT_EQ(Inner.Name, "inner");
  EXPECT_EQ(Outer.Name, "outer");
  EXPECT_GE(Inner.TsUs, Outer.TsUs);
  EXPECT_LE(Inner.TsUs + Inner.DurUs, Outer.TsUs + Outer.DurUs);
  EXPECT_EQ(Inner.Tid, Outer.Tid);
  ASSERT_EQ(Outer.Args.size(), 1u);
  EXPECT_EQ(Outer.Args[0].first, "k");
  EXPECT_EQ(Outer.Args[0].second, "v");
}

TEST(TracerTest, InactiveTracerRecordsNothing) {
  Tracer::instance().disable();
  Tracer::instance().drain();
  {
    Span S("dead", "test");
    EXPECT_FALSE(S.live());
  }
  EXPECT_EQ(Tracer::instance().eventCount(), 0u);
}

TEST(TracerTest, ChromeTraceJsonSchema) {
  TracerGuard G;
  {
    Span S("phase-a", "test");
    S.noteU64("n", 3);
  }

  std::ostringstream OS;
  size_t N = Tracer::instance().writeChromeTrace(OS, "obs_test");
  EXPECT_EQ(N, 1u);

  std::string Err;
  std::unique_ptr<harness::JsonValue> Doc =
      harness::JsonValue::parse(OS.str(), &Err);
  ASSERT_TRUE(Doc) << Err;
  const harness::JsonValue &Evs = Doc->get("traceEvents");
  ASSERT_EQ(Evs.kind(), harness::JsonValue::Kind::Array);
  std::set<uint64_t> Pids;
  unsigned Metadata = 0, Complete = 0;
  for (const harness::JsonValue &E : Evs.array()) {
    ASSERT_TRUE(E.has("name"));
    ASSERT_TRUE(E.has("ph"));
    ASSERT_TRUE(E.has("pid"));
    ASSERT_TRUE(E.has("tid"));
    Pids.insert(E.getU64("pid"));
    const std::string Ph = E.getString("ph");
    if (Ph == "M") {
      ++Metadata;
      EXPECT_EQ(E.getString("name"), "process_name");
      EXPECT_EQ(E.get("args").getString("name"), "obs_test");
    } else if (Ph == "X") {
      ++Complete;
      EXPECT_TRUE(E.has("ts"));
      EXPECT_TRUE(E.has("dur"));
      EXPECT_EQ(E.get("args").getString("n"), "3");
    }
  }
  // One process, one lane label.
  EXPECT_EQ(Metadata, 1u);
  EXPECT_EQ(Complete, 1u);
  EXPECT_EQ(Pids.size(), 1u);
}

// -- Decision log -----------------------------------------------------------

/// Runs the full prefetch pass on the jess kernel under a DecisionScope
/// and returns the recorded events.
std::vector<DecisionEvent> runJessWithLog(core::PrefetchPassOptions Opts,
                                          core::PrefetchPassResult *R =
                                              nullptr) {
  JessWorld W(64, /*Scramble=*/true);
  DecisionLog Log;
  DecisionScope Scope(Log);
  core::PrefetchPass Pass(*W.Heap, Opts);
  core::PrefetchPassResult Result = Pass.run(W.Find, W.findArgs());
  if (R)
    *R = Result;
  return Log.take();
}

core::PrefetchPassOptions jessOpts() {
  core::PrefetchPassOptions Opts;
  Opts.Planner.Mode = core::PrefetchMode::InterIntra;
  Opts.Planner.LineBytes = 64;
  return Opts;
}

TEST(DecisionLogTest, JessGoldenEvents) {
  core::PrefetchPassResult R;
  std::vector<DecisionEvent> Evs = runJessWithLog(jessOpts(), &R);
  ASSERT_FALSE(Evs.empty());

  // Every event is attributed to the method and a real loop header.
  std::set<uint64_t> Loops;
  for (const DecisionEvent &E : Evs) {
    EXPECT_FALSE(E.Method.empty());
    EXPECT_FALSE(E.Pass.empty());
    EXPECT_FALSE(E.Event.empty());
    Loops.insert(E.Loop);
  }
  // At least one decision entry per visited loop: every loop the pass
  // looked at is explained.
  EXPECT_GE(Loops.size(), size_t(R.LoopsVisited));

  auto Has = [&](const char *Pass, const char *Event) {
    return std::any_of(Evs.begin(), Evs.end(),
                       [&](const DecisionEvent &E) {
                         return E.Pass == Pass && E.Event == Event;
                       });
  };
  // jess's outer loop inspects, finds the 208-byte inter stride, plans,
  // and emits code; the 5-trip inner loop is skipped as small-trip.
  EXPECT_TRUE(Has("inspect", "reached"));
  EXPECT_TRUE(Has("inspect", "small-trip"));
  EXPECT_TRUE(Has("codegen", "emitted"));
  auto Inter = std::find_if(Evs.begin(), Evs.end(),
                            [](const DecisionEvent &E) {
                              return E.Pass == "stride" &&
                                     E.Event == "inter-pattern";
                            });
  ASSERT_NE(Inter, Evs.end());
  EXPECT_NE(Inter->Stride, 0);
  EXPECT_GT(Inter->Samples, 0u);
  EXPECT_GT(Inter->Confidence, 0.5);
  EXPECT_FALSE(Inter->Site.empty());
}

TEST(DecisionLogTest, ScopeIsNullWhenNotInstalled) {
  EXPECT_EQ(DecisionScope::current(), nullptr);
  std::vector<DecisionEvent> Evs = runJessWithLog(jessOpts());
  EXPECT_FALSE(Evs.empty()); // Scoped run still records.
  EXPECT_EQ(DecisionScope::current(), nullptr); // Restored on unwind.
}

TEST(DecisionLogTest, GovernorGoldenEvents) {
  // The governor's epoch re-decisions ride the same DecisionLog pipeline
  // as compile-time decisions (Pass="governor"), so a cell's report
  // shows *runtime* adaptation next to the static plan.
  DecisionLog Log;
  opt::EpochVerdict Verdict;
  {
    DecisionScope Scope(Log);
    opt::Governor Gov;
    auto Health = [](uint64_t Useful, uint64_t Late, uint64_t Unused) {
      sim::SiteStats S;
      S.SwIssued = Useful + Late + Unused;
      S.SwUseful = Useful;
      S.SwLate = Late;
      S.SwUnused = Unused;
      return S;
    };
    // Site 0 mostly late, sites 1+2 mostly unused: all three are below
    // the accuracy floor (quarantine x3 -> reinspect escalation).
    std::vector<sim::SiteStats> T = {Health(10, 50, 4), Health(4, 4, 56),
                                     Health(2, 2, 60)};
    Verdict = Gov.endEpoch(T);
  }
  EXPECT_EQ(Verdict.Quarantined, (std::vector<exec::SiteId>{0, 1, 2}));
  EXPECT_TRUE(Verdict.Reinspect);

  std::vector<DecisionEvent> Evs = Log.take();
  ASSERT_EQ(Evs.size(), 4u);
  for (unsigned I = 0; I != 3; ++I) {
    EXPECT_EQ(Evs[I].Pass, "governor");
    EXPECT_EQ(Evs[I].Event, "quarantine");
    EXPECT_EQ(Evs[I].Site, "site#" + std::to_string(I));
    EXPECT_EQ(Evs[I].Samples, 64u); // Resolved fills behind the decision.
  }
  EXPECT_EQ(Evs[0].Detail, "resolved=64 accuracy=0.16");
  EXPECT_NEAR(Evs[0].Confidence, 10.0 / 64.0, 1e-9);
  EXPECT_EQ(Evs[3].Event, "reinspect");
  EXPECT_EQ(Evs[3].Samples, 3u); // Quarantines behind the escalation.
  // The escalation re-inspects the whole program: no site, and no
  // per-site fill evidence to report.
  EXPECT_EQ(Evs[3].Site, "");
  EXPECT_EQ(Evs[3].Detail, "fresh_quarantines=3");
  for (const DecisionEvent &E : Evs) {
    if (E.Event == "reinspect")
      continue;
    EXPECT_NE(E.Detail.find("resolved="), std::string::npos);
    EXPECT_NE(E.Detail.find("accuracy="), std::string::npos);
  }
}

TEST(DecisionLogTest, GovernorWithoutScopeStillDecides) {
  // No DecisionScope installed: decisions are returned (and applied by
  // the runner) even though nothing is recorded — observability must
  // never gate behavior.
  opt::Governor Gov;
  sim::SiteStats S;
  S.SwIssued = 64;
  S.SwUseful = 2;
  S.SwUnused = 62;
  std::vector<sim::SiteStats> T = {S};
  EXPECT_EQ(Gov.endEpoch(T).Quarantined, (std::vector<exec::SiteId>{0}));
}

// -- Observability never changes results ------------------------------------

TEST(ObsParityTest, ArmedTracerLeavesRunsUnchanged) {
  using workloads::Algorithm;
  auto RunJess = [] {
    harness::ExperimentPlan Plan;
    workloads::WorkloadConfig Cfg;
    Cfg.Scale = 0.05;
    Plan.addSweep({workloads::findWorkload("jess")},
                  {Algorithm::Baseline, Algorithm::InterIntra},
                  {(*sim::MachineConfig::byName("pentium4"))}, Cfg);
    return harness::runPlan(Plan, 2);
  };

  harness::ExperimentResult Unarmed = RunJess();
  harness::ExperimentResult Armed;
  {
    TracerGuard G;
    Armed = RunJess();
    EXPECT_FALSE(Tracer::instance().drain().empty());
  }

  ASSERT_TRUE(Unarmed.ok());
  ASSERT_TRUE(Armed.ok());
  ASSERT_EQ(Unarmed.Cells.size(), Armed.Cells.size());
  for (size_t I = 0; I != Unarmed.Cells.size(); ++I) {
    const workloads::RunResult &A = Unarmed.Cells[I].Run;
    const workloads::RunResult &B = Armed.Cells[I].Run;
    EXPECT_EQ(A.CompiledCycles, B.CompiledCycles);
    EXPECT_EQ(A.Retired, B.Retired);
    EXPECT_EQ(A.ReturnValue, B.ReturnValue);
    EXPECT_EQ(A.Mem, B.Mem);
    EXPECT_EQ(A.Prefetch.CodeGen.Prefetches,
              B.Prefetch.CodeGen.Prefetches);
    EXPECT_EQ(A.Prefetch.CodeGen.SpecLoads, B.Prefetch.CodeGen.SpecLoads);
    EXPECT_EQ(A.Decisions, B.Decisions);
  }
  // Decisions are recorded whether or not the tracer is armed.
  EXPECT_FALSE(Armed.Cells.back().Run.Decisions.empty());
}

// The sweep report carries each cell's decisions, in order, as its
// `decisions` array; a cell that made none (BASELINE) has no such key.
TEST(ObsReportTest, EachCellReportsItsOwnDecisions) {
  harness::ExperimentPlan Plan;
  workloads::WorkloadConfig Cfg;
  Cfg.Scale = 0.05;
  Plan.addSweep({workloads::findWorkload("jess")},
                {workloads::Algorithm::Baseline,
                 workloads::Algorithm::InterIntra},
                {(*sim::MachineConfig::byName("pentium4"))}, Cfg);
  harness::ExperimentResult R = harness::runPlan(Plan, 1);
  ASSERT_TRUE(R.ok());
  std::ostringstream OS;
  harness::writeJsonReport(OS, Plan, R, 0.05, 1);
  std::string Error;
  std::unique_ptr<harness::JsonValue> Doc =
      harness::JsonValue::parse(OS.str(), &Error);
  ASSERT_TRUE(Doc) << Error;
  const std::vector<harness::JsonValue> &Cells = Doc->get("cells").array();
  ASSERT_EQ(Cells.size(), 2u);
  EXPECT_TRUE(R.run(0).Decisions.empty());
  EXPECT_FALSE(Cells[0].has("decisions"));

  const std::vector<DecisionEvent> &Want = R.run(1).Decisions;
  ASSERT_FALSE(Want.empty());
  const std::vector<harness::JsonValue> &Got =
      Cells[1].get("decisions").array();
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I != Want.size(); ++I) {
    EXPECT_EQ(Got[I].getString("method"), Want[I].Method) << I;
    EXPECT_EQ(Got[I].getU64("loop"), Want[I].Loop) << I;
    EXPECT_EQ(Got[I].getString("pass"), Want[I].Pass) << I;
    EXPECT_EQ(Got[I].getString("event"), Want[I].Event) << I;
    EXPECT_EQ(Got[I].getString("site"), Want[I].Site) << I;
    EXPECT_EQ(Got[I].getDouble("stride"), static_cast<double>(Want[I].Stride))
        << I;
    EXPECT_EQ(Got[I].getU64("samples"), Want[I].Samples) << I;
  }
}

} // namespace
