//===- harness/Journal.cpp ------------------------------------------------===//

#include "harness/Journal.h"

#include "harness/JsonReader.h"
#include "harness/JsonWriter.h"
#include "obs/DecisionLog.h"
#include "obs/StatRegistry.h"
#include "support/FaultInjection.h"
#include "support/Process.h"

#include <cstdio>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <unistd.h>

using namespace spf;
using namespace spf::harness;

namespace {

constexpr const char *JournalMagic = "spf-journal-v1";

uint64_t fnv1a(uint64_t H, const std::string &S) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

std::string hex16(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

} // namespace

std::string harness::journalCellKey(const ExperimentPlan &Plan, unsigned I) {
  const ExperimentCell &C = Plan.cells()[I];
  std::string Key = std::to_string(I) + "|" + C.Group + "|" + C.Spec->Name +
                    "|" + workloads::algorithmName(C.Opt.Algo) + "|" +
                    C.Opt.Machine.Name + "|";
  // The prefetch-source facet is part of the identity: a mode sweep runs
  // e.g. None and HwOnly cells that agree on every other component (the
  // facet lives in the machine's HwPrefetchEnabled, which is timing-only
  // and so absent from the execution signature). Classic-sweep cells
  // (Unset) keep the legacy key format, so existing journals still load.
  if (C.Mode != PrefetchSources::Unset)
    Key += std::string("mode=") + prefetchSourcesName(C.Mode) + "|";
  // Timeline cadence is part of the identity too: TimelineEvery is
  // deliberately absent from the execution signature (it never shapes
  // the event stream), but a record journaled without timeline samples
  // cannot satisfy a resume that wants them — and vice versa the report
  // must not suddenly grow keys. Classic cells (0) keep the legacy key.
  if (C.Opt.TimelineEvery)
    Key += "timeline=" + std::to_string(C.Opt.TimelineEvery) + "|";
  std::string Sig = workloads::executionSignature(*C.Spec, C.Opt);
  if (!Sig.empty()) {
    Key += Sig;
  } else {
    // Unkeyable run options (TunePass without TuneKey, governor-on): fall
    // back to the workload facets; the plan index above still pins the
    // cell. Epoch/GC/governor facets append conditionally so classic
    // cells keep the legacy key format.
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), "scale=%.17g,seed=%llu,heap=%llu",
                  C.Opt.Config.Scale,
                  static_cast<unsigned long long>(C.Opt.Config.Seed),
                  static_cast<unsigned long long>(C.Opt.Config.HeapBytes));
    Key += Buf;
    if (C.Opt.Epochs > 1)
      Key += ",epochs=" + std::to_string(C.Opt.Epochs);
    if (C.Opt.GcVariant != vm::GcVariant::SlidingCompact)
      Key += std::string(",gc=") + vm::gcVariantName(C.Opt.GcVariant);
    if (C.Opt.PhaseChange)
      Key += ",phase=1";
    if (C.Opt.Governor)
      Key += ",governor=1";
  }
  return Key;
}

uint64_t harness::journalPlanHash(const ExperimentPlan &Plan) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned I = 0, E = static_cast<unsigned>(Plan.size()); I != E; ++I) {
    H = fnv1a(H, journalCellKey(Plan, I));
    H = fnv1a(H, "\n");
  }
  return H;
}

void harness::writeCellRecordJson(JsonWriter &J, const CellResult &Cell) {
  const workloads::RunResult &R = Cell.Run;
  J.beginObject();
  J.key("ran").value(Cell.Ran);
  J.key("failed").value(Cell.Failed);
  J.key("timed_out").value(Cell.TimedOut);
  J.key("transient").value(Cell.Transient);
  J.key("crashed").value(Cell.Crashed);
  J.key("deadline_killed").value(Cell.DeadlineKilled);
  J.key("attempts").value(static_cast<uint64_t>(Cell.Attempts));
  J.key("signal").value(static_cast<int64_t>(Cell.Signal));
  J.key("exit_status").value(static_cast<int64_t>(Cell.ExitStatus));
  J.key("error").value(Cell.Error);
  J.key("run").beginObject();
  J.key("cycles").value(R.CompiledCycles);
  J.key("retired").value(R.Retired);
  J.key("jit_total_us").value(R.JitTotalUs);
  J.key("jit_prefetch_us").value(R.JitPrefetchUs);
  J.key("return_value").value(R.ReturnValue);
  J.key("self_check_ok").value(R.SelfCheckOk);
  J.key("replayed").value(R.Replayed);
  J.key("interpret_us").value(R.InterpretUs);
  // Epoch/governor accounting, conditional keys: classic single-epoch
  // records stay byte-identical to the pre-governor format.
  if (R.Epochs > 1)
    J.key("epochs").value(static_cast<uint64_t>(R.Epochs));
  if (R.GcCollections)
    J.key("gc_collections").value(R.GcCollections);
  if (R.GovernorQuarantined)
    J.key("governor_quarantined")
        .value(static_cast<uint64_t>(R.GovernorQuarantined));
  if (R.GovernorRetunes)
    J.key("governor_retunes").value(static_cast<uint64_t>(R.GovernorRetunes));
  if (R.GovernorReinspections)
    J.key("governor_reinspections")
        .value(static_cast<uint64_t>(R.GovernorReinspections));
  J.key("mem").beginObject();
  J.key("loads").value(R.Mem.Loads);
  J.key("stores").value(R.Mem.Stores);
  J.key("l1_load_misses").value(R.Mem.L1LoadMisses);
  J.key("l1_store_misses").value(R.Mem.L1StoreMisses);
  J.key("l2_load_misses").value(R.Mem.L2LoadMisses);
  J.key("dtlb_load_misses").value(R.Mem.DtlbLoadMisses);
  J.key("sw_prefetches_issued").value(R.Mem.SwPrefetchesIssued);
  J.key("sw_prefetches_cancelled").value(R.Mem.SwPrefetchesCancelled);
  J.key("guarded_loads").value(R.Mem.GuardedLoads);
  J.key("guarded_load_faults").value(R.Mem.GuardedLoadFaults);
  J.key("cycles_stalled_on_loads").value(R.Mem.CyclesStalledOnLoads);
  // Multi-level/walked-TLB counters, emitted only when nonzero: legacy
  // journals (and records of machines where they cannot fire) stay
  // byte-identical to the pre-hierarchy format.
  if (R.Mem.LlcLoadMisses)
    J.key("llc_load_misses").value(R.Mem.LlcLoadMisses);
  if (R.Mem.PageWalks)
    J.key("page_walks").value(R.Mem.PageWalks);
  if (R.Mem.PageWalkCycles)
    J.key("page_walk_cycles").value(R.Mem.PageWalkCycles);
  // Prefetch-effectiveness counters, same conditional-key contract: RPT
  // counters fire only on RPT machines, Sw* resolution only under the
  // governor's health tracking.
  if (R.Mem.RptPrefetchesIssued)
    J.key("rpt_prefetches_issued").value(R.Mem.RptPrefetchesIssued);
  if (R.Mem.RptPrefetchesUseful)
    J.key("rpt_prefetches_useful").value(R.Mem.RptPrefetchesUseful);
  if (R.Mem.RptPrefetchesLate)
    J.key("rpt_prefetches_late").value(R.Mem.RptPrefetchesLate);
  if (R.Mem.RptPrefetchesUnused)
    J.key("rpt_prefetches_unused").value(R.Mem.RptPrefetchesUnused);
  if (R.Mem.SwPrefetchesUseful)
    J.key("sw_prefetches_useful").value(R.Mem.SwPrefetchesUseful);
  if (R.Mem.SwPrefetchesLate)
    J.key("sw_prefetches_late").value(R.Mem.SwPrefetchesLate);
  if (R.Mem.SwPrefetchesUnused)
    J.key("sw_prefetches_unused").value(R.Mem.SwPrefetchesUnused);
  J.endObject();
  J.key("exec").beginObject();
  J.key("retired").value(R.Exec.Retired);
  J.key("prefetch_related").value(R.Exec.PrefetchRelated);
  J.key("calls").value(R.Exec.Calls);
  J.key("allocations").value(R.Exec.Allocations);
  J.key("gc_runs").value(R.Exec.GcRuns);
  J.endObject();
  J.key("prefetch").beginObject();
  J.key("loops_visited").value(static_cast<uint64_t>(R.Prefetch.LoopsVisited));
  J.key("loops_skipped_small_trip")
      .value(static_cast<uint64_t>(R.Prefetch.LoopsSkippedSmallTrip));
  J.key("loops_not_reached")
      .value(static_cast<uint64_t>(R.Prefetch.LoopsNotReached));
  J.key("loops_degraded")
      .value(static_cast<uint64_t>(R.Prefetch.LoopsDegraded));
  J.key("inspection_faults_injected")
      .value(R.Prefetch.InspectionFaultsInjected);
  J.key("prefetches")
      .value(static_cast<uint64_t>(R.Prefetch.CodeGen.Prefetches));
  J.key("spec_loads")
      .value(static_cast<uint64_t>(R.Prefetch.CodeGen.SpecLoads));
  J.endObject();
  // Cycle attribution and the sampled timeline ride along only for
  // sampling runs (Timeline is nonempty iff TimelineEvery > 0 — the
  // sampler always appends a final sample), so classic records stay
  // byte-identical. Both are flat tuples: acct is
  // [compute, wait, mem_penalty, translation, guard_fault,
  // prefetch_issue, l1..lN]; each timeline sample prepends
  // [event, boundary, cycles] and appends [loads, sw_issued, sw_useful,
  // sw_late, sw_unused] around the same acct layout.
  if (!R.Timeline.empty()) {
    auto WriteAcct = [&](const sim::CycleAccounting &A) {
      J.value(A.Compute);
      J.value(A.Wait);
      J.value(A.MemPenalty);
      J.value(A.Translation);
      J.value(A.GuardFault);
      J.value(A.PrefetchIssue);
      for (uint64_t L : A.Level)
        J.value(L);
    };
    J.key("acct").beginArray();
    WriteAcct(R.Acct);
    J.endArray();
    J.key("timeline").beginArray();
    for (const obs::TimelineSample &S : R.Timeline) {
      J.beginArray();
      J.value(S.EventIndex);
      J.value(static_cast<uint64_t>(S.Boundary ? 1 : 0));
      J.value(S.Cycles);
      J.value(S.Loads);
      J.value(S.SwIssued);
      J.value(S.SwUseful);
      J.value(S.SwLate);
      J.value(S.SwUnused);
      WriteAcct(S.Acct);
      J.endArray();
    }
    J.endArray();
  }
  // Per-site stats as compact 4-tuples; Prefetch.Loops (diagnostic-only
  // per-loop reports, referencing freed analyses) are dropped.
  // Health-tracked runs widen every tuple to 12 (the 8 prefetch-health
  // fields appended); runs without health data keep the classic 4-tuple
  // byte for byte. Stall attribution appends one more column (5/13)
  // whenever any site carries stall cycles — records parse at any of
  // the four widths, older columns first.
  bool SiteHealth = false;
  bool SiteStall = false;
  for (const sim::SiteStats &S : R.Sites) {
    if (S.SwIssued || S.SwUseful || S.SwLate || S.SwUnused || S.RptIssued ||
        S.RptUseful || S.RptLate || S.RptUnused)
      SiteHealth = true;
    if (S.StallCycles)
      SiteStall = true;
    if (SiteHealth && SiteStall)
      break;
  }
  J.key("sites").beginArray();
  for (const sim::SiteStats &S : R.Sites) {
    J.beginArray();
    J.value(S.Loads);
    J.value(S.L1Misses);
    J.value(S.L2Misses);
    J.value(S.DtlbMisses);
    if (SiteHealth) {
      J.value(S.SwIssued);
      J.value(S.SwUseful);
      J.value(S.SwLate);
      J.value(S.SwUnused);
      J.value(S.RptIssued);
      J.value(S.RptUseful);
      J.value(S.RptLate);
      J.value(S.RptUnused);
    }
    if (SiteStall)
      J.value(S.StallCycles);
    J.endArray();
  }
  J.endArray();
  // Compile-decision events ride along so --explain works for journaled
  // and worker-run cells. The member is omitted entirely when empty,
  // keeping obs-disabled records byte-identical to the pre-obs format.
  if (!R.Decisions.empty()) {
    J.key("decisions").beginArray();
    for (const obs::DecisionEvent &D : R.Decisions)
      obs::writeDecisionJson(J, D);
    J.endArray();
  }
  J.endObject();
  J.endObject();
}

bool harness::parseCellRecord(const JsonValue &V, CellResult &Cell) {
  if (V.kind() != JsonValue::Kind::Object || !V.has("ran"))
    return false;
  Cell = CellResult();
  Cell.Ran = V.getBool("ran");
  Cell.Failed = V.getBool("failed");
  Cell.TimedOut = V.getBool("timed_out");
  Cell.Transient = V.getBool("transient");
  Cell.Crashed = V.getBool("crashed");
  Cell.DeadlineKilled = V.getBool("deadline_killed");
  Cell.Attempts = static_cast<unsigned>(V.getU64("attempts"));
  Cell.Signal = static_cast<int>(V.getI64("signal"));
  Cell.ExitStatus = static_cast<int>(V.getI64("exit_status"));
  Cell.Error = V.getString("error");

  const JsonValue &Run = V.get("run");
  if (Run.kind() != JsonValue::Kind::Object)
    return false;
  workloads::RunResult &R = Cell.Run;
  R.CompiledCycles = Run.getU64("cycles");
  R.Retired = Run.getU64("retired");
  R.JitTotalUs = Run.getDouble("jit_total_us");
  R.JitPrefetchUs = Run.getDouble("jit_prefetch_us");
  R.ReturnValue = Run.getU64("return_value");
  R.SelfCheckOk = Run.getBool("self_check_ok", true);
  R.Replayed = Run.getBool("replayed");
  R.InterpretUs = Run.getDouble("interpret_us");
  R.Epochs = static_cast<unsigned>(Run.getU64("epochs", 1));
  R.GcCollections = Run.getU64("gc_collections");
  R.GovernorQuarantined =
      static_cast<unsigned>(Run.getU64("governor_quarantined"));
  R.GovernorRetunes = static_cast<unsigned>(Run.getU64("governor_retunes"));
  R.GovernorReinspections =
      static_cast<unsigned>(Run.getU64("governor_reinspections"));

  const JsonValue &Mem = Run.get("mem");
  R.Mem.Loads = Mem.getU64("loads");
  R.Mem.Stores = Mem.getU64("stores");
  R.Mem.L1LoadMisses = Mem.getU64("l1_load_misses");
  R.Mem.L1StoreMisses = Mem.getU64("l1_store_misses");
  R.Mem.L2LoadMisses = Mem.getU64("l2_load_misses");
  R.Mem.DtlbLoadMisses = Mem.getU64("dtlb_load_misses");
  R.Mem.SwPrefetchesIssued = Mem.getU64("sw_prefetches_issued");
  R.Mem.SwPrefetchesCancelled = Mem.getU64("sw_prefetches_cancelled");
  R.Mem.GuardedLoads = Mem.getU64("guarded_loads");
  R.Mem.GuardedLoadFaults = Mem.getU64("guarded_load_faults");
  R.Mem.CyclesStalledOnLoads = Mem.getU64("cycles_stalled_on_loads");
  R.Mem.LlcLoadMisses = Mem.getU64("llc_load_misses");
  R.Mem.PageWalks = Mem.getU64("page_walks");
  R.Mem.PageWalkCycles = Mem.getU64("page_walk_cycles");
  R.Mem.RptPrefetchesIssued = Mem.getU64("rpt_prefetches_issued");
  R.Mem.RptPrefetchesUseful = Mem.getU64("rpt_prefetches_useful");
  R.Mem.RptPrefetchesLate = Mem.getU64("rpt_prefetches_late");
  R.Mem.RptPrefetchesUnused = Mem.getU64("rpt_prefetches_unused");
  R.Mem.SwPrefetchesUseful = Mem.getU64("sw_prefetches_useful");
  R.Mem.SwPrefetchesLate = Mem.getU64("sw_prefetches_late");
  R.Mem.SwPrefetchesUnused = Mem.getU64("sw_prefetches_unused");

  const JsonValue &Exec = Run.get("exec");
  R.Exec.Retired = Exec.getU64("retired");
  R.Exec.PrefetchRelated = Exec.getU64("prefetch_related");
  R.Exec.Calls = Exec.getU64("calls");
  R.Exec.Allocations = Exec.getU64("allocations");
  R.Exec.GcRuns = Exec.getU64("gc_runs");

  const JsonValue &Pf = Run.get("prefetch");
  R.Prefetch.LoopsVisited = static_cast<unsigned>(Pf.getU64("loops_visited"));
  R.Prefetch.LoopsSkippedSmallTrip =
      static_cast<unsigned>(Pf.getU64("loops_skipped_small_trip"));
  R.Prefetch.LoopsNotReached =
      static_cast<unsigned>(Pf.getU64("loops_not_reached"));
  R.Prefetch.LoopsDegraded =
      static_cast<unsigned>(Pf.getU64("loops_degraded"));
  R.Prefetch.InspectionFaultsInjected =
      Pf.getU64("inspection_faults_injected");
  R.Prefetch.CodeGen.Prefetches =
      static_cast<unsigned>(Pf.getU64("prefetches"));
  R.Prefetch.CodeGen.SpecLoads =
      static_cast<unsigned>(Pf.getU64("spec_loads"));

  const JsonValue &Sites = Run.get("sites");
  if (Sites.kind() == JsonValue::Kind::Array) {
    R.Sites.reserve(Sites.array().size());
    for (const JsonValue &S : Sites.array()) {
      // 4 = classic tuple, 12 = with the prefetch-health columns; 5/13
      // append the stall-cycle column. Older widths parse with the
      // missing columns left zero.
      size_t N = S.kind() == JsonValue::Kind::Array ? S.array().size() : 0;
      if (N != 4 && N != 5 && N != 12 && N != 13)
        return false;
      sim::SiteStats St;
      St.Loads = S.array()[0].u64();
      St.L1Misses = S.array()[1].u64();
      St.L2Misses = S.array()[2].u64();
      St.DtlbMisses = S.array()[3].u64();
      if (N >= 12) {
        St.SwIssued = S.array()[4].u64();
        St.SwUseful = S.array()[5].u64();
        St.SwLate = S.array()[6].u64();
        St.SwUnused = S.array()[7].u64();
        St.RptIssued = S.array()[8].u64();
        St.RptUseful = S.array()[9].u64();
        St.RptLate = S.array()[10].u64();
        St.RptUnused = S.array()[11].u64();
      }
      if (N == 5 || N == 13)
        St.StallCycles = S.array()[N - 1].u64();
      R.Sites.push_back(St);
    }
  }
  // Inverse of the acct/timeline tuples above; absent members (classic
  // records) leave Acct zeroed and Timeline empty.
  auto ParseAcct = [](const JsonValue &A, sim::CycleAccounting &Out,
                      size_t From) {
    Out.Compute = A.array()[From + 0].u64();
    Out.Wait = A.array()[From + 1].u64();
    Out.MemPenalty = A.array()[From + 2].u64();
    Out.Translation = A.array()[From + 3].u64();
    Out.GuardFault = A.array()[From + 4].u64();
    Out.PrefetchIssue = A.array()[From + 5].u64();
    Out.Level.clear();
    for (size_t I = From + 6; I < A.array().size(); ++I)
      Out.Level.push_back(A.array()[I].u64());
  };
  if (Run.has("acct")) {
    const JsonValue &A = Run.get("acct");
    if (A.kind() != JsonValue::Kind::Array || A.array().size() < 6)
      return false;
    ParseAcct(A, R.Acct, 0);
  }
  if (Run.has("timeline")) {
    const JsonValue &T = Run.get("timeline");
    if (T.kind() != JsonValue::Kind::Array)
      return false;
    R.Timeline.reserve(T.array().size());
    for (const JsonValue &S : T.array()) {
      if (S.kind() != JsonValue::Kind::Array || S.array().size() < 14)
        return false;
      obs::TimelineSample Sample;
      Sample.EventIndex = S.array()[0].u64();
      Sample.Boundary = S.array()[1].u64() != 0;
      Sample.Cycles = S.array()[2].u64();
      Sample.Loads = S.array()[3].u64();
      Sample.SwIssued = S.array()[4].u64();
      Sample.SwUseful = S.array()[5].u64();
      Sample.SwLate = S.array()[6].u64();
      Sample.SwUnused = S.array()[7].u64();
      ParseAcct(S, Sample.Acct, 8);
      R.Timeline.push_back(Sample);
    }
  }

  if (Run.has("decisions")) {
    const JsonValue &Ds = Run.get("decisions");
    if (Ds.kind() == JsonValue::Kind::Array) {
      R.Decisions.reserve(Ds.array().size());
      for (const JsonValue &D : Ds.array())
        R.Decisions.push_back(obs::parseDecisionEvent(D));
    }
  }
  return true;
}

RunJournal::~RunJournal() {
  if (Fd >= 0)
    ::close(Fd);
}

bool RunJournal::load(const ExperimentPlan &Plan,
                      std::vector<std::optional<CellResult>> &Recorded,
                      std::string *Error) {
  Recorded.assign(Plan.size(), std::nullopt);
  std::ifstream IS(Path, std::ios::binary);
  if (!IS)
    return true; // No journal yet: nothing recorded, fresh resume.

  std::string Content((std::istreambuf_iterator<char>(IS)),
                      std::istreambuf_iterator<char>());
  const std::string WantHash = hex16(journalPlanHash(Plan));

  size_t Pos = 0;
  unsigned LineNo = 0;
  bool SawHeader = false;
  while (Pos < Content.size()) {
    size_t Nl = Content.find('\n', Pos);
    if (Nl == std::string::npos)
      break; // Truncated final line: the crash interrupted this write.
    std::string Line = Content.substr(Pos, Nl - Pos);
    Pos = Nl + 1;
    ++LineNo;
    if (Line.empty())
      continue;

    std::string ParseError;
    std::unique_ptr<JsonValue> V = JsonValue::parse(Line, &ParseError);
    if (!V) {
      if (Error)
        *Error = Path + ":" + std::to_string(LineNo) +
                 ": malformed journal line: " + ParseError;
      return false;
    }

    if (!SawHeader) {
      SawHeader = true;
      if (V->getString("journal") != JournalMagic) {
        if (Error)
          *Error = Path + ": not a " + std::string(JournalMagic) + " file";
        return false;
      }
      if (V->getString("plan_hash") != WantHash) {
        if (Error)
          *Error = Path + ": plan hash mismatch (journal " +
                   V->getString("plan_hash") + ", plan " + WantHash +
                   "): refusing to graft results from a different plan";
        return false;
      }
      continue;
    }

    uint64_t Cell = V->getU64("cell", Plan.size());
    if (Cell >= Plan.size()) {
      if (Error)
        *Error = Path + ":" + std::to_string(LineNo) +
                 ": cell index out of range";
      return false;
    }
    // The plan hash already pins every key, but verify per-line anyway:
    // it catches a journal assembled from two different runs.
    if (V->getString("key") !=
        journalCellKey(Plan, static_cast<unsigned>(Cell))) {
      if (Error)
        *Error = Path + ":" + std::to_string(LineNo) +
                 ": cell key mismatch for cell " + std::to_string(Cell);
      return false;
    }
    CellResult R;
    if (!parseCellRecord(V->get("record"), R)) {
      if (Error)
        *Error = Path + ":" + std::to_string(LineNo) +
                 ": malformed cell record";
      return false;
    }
    Recorded[Cell] = std::move(R); // Last record wins on duplicates.
  }
  return true;
}

bool RunJournal::openForAppend(const ExperimentPlan &Plan, bool Fresh,
                               std::string *Error) {
  int Flags = O_WRONLY | O_CREAT | O_APPEND | (Fresh ? O_TRUNC : 0);
  Fd = ::open(Path.c_str(), Flags, 0644);
  if (Fd < 0) {
    if (Error)
      *Error = Path + ": cannot open journal for writing";
    return false;
  }
  // A fresh journal (or a resumed one whose file vanished) needs the
  // header; an existing non-empty journal already has it.
  off_t End = ::lseek(Fd, 0, SEEK_END);
  if (Fresh || End == 0) {
    std::ostringstream OS;
    JsonWriter J(OS);
    J.beginObject();
    J.key("journal").value(JournalMagic);
    J.key("plan_hash").value(hex16(journalPlanHash(Plan)));
    J.key("cells").value(static_cast<uint64_t>(Plan.size()));
    J.endObject();
    OS << '\n';
    std::string Line = OS.str();
    if (!support::writeAllFd(Fd, Line.data(), Line.size())) {
      if (Error)
        *Error = Path + ": cannot write journal header";
      return false;
    }
    ::fsync(Fd);
  }
  return true;
}

bool RunJournal::writeLineLocked(const std::string &Line) {
  // Injected disk failure: refuse before touching the file, exactly like
  // an ENOSPC that rejects the whole write.
  if (SPF_FAULT_POINT(support::FaultSite::DiskWrite))
    return false;
  off_t Before = ::lseek(Fd, 0, SEEK_END);
  if (support::writeAllFd(Fd, Line.data(), Line.size()))
    return true;
  // Real short/failed write. A torn tail line is tolerable (load() drops
  // it), but appending *after* one would create a malformed interior line
  // that poisons the whole journal — truncate the tear back off.
  if (Before < 0 || ::ftruncate(Fd, Before) != 0)
    Poisoned = true;
  return false;
}

void RunJournal::append(const ExperimentPlan &Plan, unsigned I,
                        const CellResult &Cell) {
  if (Fd < 0)
    return;
  std::ostringstream OS;
  JsonWriter J(OS);
  J.beginObject();
  J.key("key").value(journalCellKey(Plan, I));
  J.key("cell").value(static_cast<uint64_t>(I));
  J.key("record");
  writeCellRecordJson(J, Cell);
  J.endObject();
  OS << '\n';
  std::string Line = OS.str();
  std::lock_guard<std::mutex> Lock(Mu);
  // One O_APPEND write keeps the line atomic; the fsync makes it durable
  // before the supervisor moves on — a later SIGKILL cannot lose it.
  bool Wrote = !Poisoned && writeLineLocked(Line);
  if (!Wrote && !Poisoned)
    Wrote = writeLineLocked(Line); // Retry once: transient EIO recovers.
  if (!Wrote) {
    // The record is dropped from the journal (the cell re-runs on
    // --resume); the sweep itself carries on. Loud, not silent:
    AppendFailures.fetch_add(1, std::memory_order_relaxed);
    Degraded.store(true, std::memory_order_relaxed);
    obs::stats().counter("spf_journal_append_failures_total").inc();
    obs::stats().gauge("spf_journal_degraded").set(1);
    return;
  }
  bool SyncFailed = SPF_FAULT_POINT(support::FaultSite::DiskSync) ||
                    ::fsync(Fd) != 0;
  if (SyncFailed) {
    // The line is in the file but not guaranteed durable.
    SyncFailures.fetch_add(1, std::memory_order_relaxed);
    Degraded.store(true, std::memory_order_relaxed);
    obs::stats().counter("spf_journal_sync_failures_total").inc();
    obs::stats().gauge("spf_journal_degraded").set(1);
  }
}
