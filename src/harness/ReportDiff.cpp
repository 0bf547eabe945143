//===- harness/ReportDiff.cpp ---------------------------------------------===//

#include "harness/ReportDiff.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>

using namespace spf;
using namespace spf::harness;

namespace {

std::string fmt(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%g", V);
  return Buf;
}

void addFinding(DiffResult &Out, std::string Where, double Ref, double Got,
                bool Regression, std::string Detail) {
  DiffFinding F;
  F.Where = std::move(Where);
  F.Ref = Ref;
  F.Got = Got;
  F.Regression = Regression;
  F.Detail = std::move(Detail);
  Out.Findings.push_back(std::move(F));
}

// -- spf-bench-adaptation-v1 ---------------------------------------------

void diffAdaptation(const JsonValue &Ref, const JsonValue &Got,
                    const DiffThresholds &T, DiffResult &Out) {
  const JsonValue &RefVars = Ref.get("variants");
  const JsonValue &GotVars = Got.get("variants");
  if (RefVars.kind() != JsonValue::Kind::Array ||
      GotVars.kind() != JsonValue::Kind::Array)
    return;
  for (const JsonValue &RV : RefVars.array()) {
    std::string Variant = RV.getString("gc_variant");
    const JsonValue *GV = nullptr;
    for (const JsonValue &Cand : GotVars.array())
      if (Cand.getString("gc_variant") == Variant) {
        GV = &Cand;
        break;
      }
    if (!GV) {
      addFinding(Out, "variants." + Variant, 0, 0, false,
                 "variant missing from fresh run");
      continue;
    }
    const JsonValue &RefWs = RV.get("workloads");
    if (RefWs.kind() != JsonValue::Kind::Array)
      continue;
    for (const JsonValue &RW : RefWs.array()) {
      std::string W = RW.getString("workload");
      const JsonValue *GW = nullptr;
      if (GV->get("workloads").kind() == JsonValue::Kind::Array)
        for (const JsonValue &Cand : GV->get("workloads").array())
          if (Cand.getString("workload") == W) {
            GW = &Cand;
            break;
          }
      std::string Where = "variants." + Variant + "." + W + ".recovery";
      if (!GW) {
        addFinding(Out, Where, RW.getDouble("recovery"), 0.0, false,
                   "workload missing from fresh run");
        continue;
      }
      double R = RW.getDouble("recovery");
      double G = GW->getDouble("recovery");
      bool Reg = G < R - T.RecoveryDrop;
      addFinding(Out, Where, R, G, Reg,
                 Reg ? "recovery dropped more than " + fmt(T.RecoveryDrop) +
                           " below baseline"
                     : (G >= R ? "no regression" : "within threshold"));
    }
  }
}

// -- spf-sweep-v2 --------------------------------------------------------

std::string cellId(const JsonValue &C) {
  std::string Id = C.getString("group") + "/" + C.getString("workload") +
                   "/" + C.getString("machine") + "/" +
                   C.getString("algorithm");
  if (C.has("prefetch_mode"))
    Id += "/" + C.getString("prefetch_mode");
  return Id;
}

void diffSweep(const JsonValue &Ref, const JsonValue &Got,
               const DiffThresholds &T, DiffResult &Out) {
  const JsonValue &RefCells = Ref.get("cells");
  const JsonValue &GotCells = Got.get("cells");
  if (RefCells.kind() != JsonValue::Kind::Array ||
      GotCells.kind() != JsonValue::Kind::Array)
    return;
  for (const JsonValue &RC : RefCells.array()) {
    std::string Id = cellId(RC);
    const JsonValue *GC = nullptr;
    for (const JsonValue &Cand : GotCells.array())
      if (cellId(Cand) == Id) {
        GC = &Cand;
        break;
      }
    if (!GC) {
      addFinding(Out, Id, static_cast<double>(RC.getU64("cycles")), 0.0,
                 false, "cell missing from fresh run");
      continue;
    }
    double R = static_cast<double>(RC.getU64("cycles"));
    double G = static_cast<double>(GC->getU64("cycles"));
    if (R == G)
      continue; // Deterministic cycles: only deltas are worth a row.
    bool Reg = R > 0 && G > R * (1.0 + T.CyclesIncreaseFrac);
    addFinding(Out, Id + ".cycles", R, G, Reg,
               Reg ? "cycles grew more than " +
                         fmt(T.CyclesIncreaseFrac * 100) + "% over baseline"
                   : (G < R ? "improved" : "within threshold"));
  }
}

// -- validation ----------------------------------------------------------

bool fail(std::string *Error, const std::string &Msg) {
  if (Error)
    *Error = Msg;
  return false;
}

/// The cycle-attribution categories of one breakdown/timeline object,
/// summed. Level keys are l1..lN — probe upward until absent.
uint64_t sumCategories(const JsonValue &B) {
  uint64_t Sum = B.getU64("wait") + B.getU64("mem_penalty") +
                 B.getU64("translation") + B.getU64("guard_fault") +
                 B.getU64("prefetch_issue");
  for (unsigned L = 1; B.has("l" + std::to_string(L)); ++L)
    Sum += B.getU64("l" + std::to_string(L));
  return Sum;
}

bool validateSweep(const JsonValue &V, std::string *Error) {
  const JsonValue &Cells = V.get("cells");
  if (Cells.kind() != JsonValue::Kind::Array)
    return fail(Error, "spf-sweep-v2: missing cells array");
  unsigned I = 0;
  for (const JsonValue &C : Cells.array()) {
    std::string Id = "cell " + std::to_string(I++) + " (" + cellId(C) + ")";
    for (const char *Key : {"group", "workload", "machine", "algorithm"})
      if (C.getString(Key).empty())
        return fail(Error, Id + ": missing " + Key);
    if (!C.has("cycles") || !C.has("site_stats_hash"))
      return fail(Error, Id + ": missing cycles/site_stats_hash");
    if (C.has("cycle_breakdown")) {
      // The tentpole invariant, checked end to end: every simulated
      // cycle charged to exactly one category.
      const JsonValue &B = C.get("cycle_breakdown");
      uint64_t Sum = sumCategories(B) + B.getU64("compute") +
                     B.getU64("gc_pause");
      if (Sum != B.getU64("total"))
        return fail(Error, Id + ": cycle_breakdown categories sum to " +
                               std::to_string(Sum) + ", total says " +
                               std::to_string(B.getU64("total")));
      if (C.getBool("ran") && Sum != C.getU64("cycles"))
        return fail(Error, Id + ": cycle_breakdown total " +
                               std::to_string(Sum) + " != cycles " +
                               std::to_string(C.getU64("cycles")));
      if (!C.has("timeline"))
        return fail(Error, Id + ": cycle_breakdown without timeline");
      const JsonValue &TL = C.get("timeline");
      if (TL.kind() != JsonValue::Kind::Array)
        return fail(Error, Id + ": timeline is not an array");
      uint64_t PrevEvent = 0, PrevCycles = 0;
      bool First = true;
      for (const JsonValue &S : TL.array()) {
        uint64_t Sum = sumCategories(S) + S.getU64("compute");
        if (Sum != S.getU64("cycles"))
          return fail(Error, Id + ": timeline sample at event " +
                                 std::to_string(S.getU64("event")) +
                                 " categories sum to " + std::to_string(Sum) +
                                 ", cycles says " +
                                 std::to_string(S.getU64("cycles")));
        if (!First && (S.getU64("event") < PrevEvent ||
                       S.getU64("cycles") < PrevCycles))
          return fail(Error, Id + ": timeline not monotone at event " +
                                 std::to_string(S.getU64("event")));
        PrevEvent = S.getU64("event");
        PrevCycles = S.getU64("cycles");
        First = false;
      }
      if (C.getBool("ran") && TL.array().empty())
        return fail(Error, Id + ": ran cell with empty timeline");
    }
  }
  return true;
}

bool validateAdaptation(const JsonValue &V, std::string *Error) {
  const JsonValue &Vars = V.get("variants");
  if (Vars.kind() != JsonValue::Kind::Array)
    return fail(Error, "spf-bench-adaptation-v1: missing variants array");
  for (const JsonValue &Var : Vars.array()) {
    if (Var.getString("gc_variant").empty())
      return fail(Error, "variant missing gc_variant");
    const JsonValue &Ws = Var.get("workloads");
    if (Ws.kind() != JsonValue::Kind::Array)
      return fail(Error,
                  "variant " + Var.getString("gc_variant") +
                      ": missing workloads array");
    for (const JsonValue &W : Ws.array())
      if (W.getString("workload").empty() || !W.has("recovery"))
        return fail(Error, "variant " + Var.getString("gc_variant") +
                               ": workload entry missing workload/recovery");
  }
  return true;
}

} // namespace

DiffResult harness::diffReports(const JsonValue &Ref, const JsonValue &Got,
                                const DiffThresholds &T) {
  DiffResult Out;
  std::string RefSchema = Ref.getString("schema");
  std::string GotSchema = Got.getString("schema");
  if (RefSchema.empty() || GotSchema.empty()) {
    Out.Comparable = false;
    Out.Error = "missing schema key";
    return Out;
  }
  if (RefSchema != GotSchema) {
    Out.Comparable = false;
    Out.Error =
        "schema mismatch: baseline " + RefSchema + " vs fresh " + GotSchema;
    return Out;
  }
  Out.Schema = RefSchema;
  if (RefSchema == "spf-bench-adaptation-v1")
    diffAdaptation(Ref, Got, T, Out);
  else if (RefSchema == "spf-sweep-v2")
    diffSweep(Ref, Got, T, Out);
  else {
    Out.Comparable = false;
    Out.Error = "unknown schema: " + RefSchema;
  }
  return Out;
}

bool harness::validateReport(const JsonValue &V, std::string *Error) {
  std::string Schema = V.getString("schema");
  if (Schema == "spf-sweep-v2")
    return validateSweep(V, Error);
  if (Schema == "spf-bench-adaptation-v1")
    return validateAdaptation(V, Error);
  return fail(Error, Schema.empty() ? "missing schema key"
                                    : "unknown schema: " + Schema);
}

bool harness::validatePromText(const std::string &Text, std::string *Error) {
  std::istringstream IS(Text);
  std::string Line;
  std::string HelpFor, TypeFor, TypeKind;
  std::set<std::string> Seen;
  unsigned LineNo = 0;
  while (std::getline(IS, Line)) {
    ++LineNo;
    std::string At = "line " + std::to_string(LineNo) + ": ";
    if (Line.empty())
      continue;
    if (Line.rfind("# HELP ", 0) == 0) {
      size_t Sp = Line.find(' ', 7);
      if (Sp == std::string::npos)
        return fail(Error, At + "malformed HELP line");
      HelpFor = Line.substr(7, Sp - 7);
      TypeFor.clear();
      continue;
    }
    if (Line.rfind("# TYPE ", 0) == 0) {
      size_t Sp = Line.find(' ', 7);
      if (Sp == std::string::npos)
        return fail(Error, At + "malformed TYPE line");
      TypeFor = Line.substr(7, Sp - 7);
      TypeKind = Line.substr(Sp + 1);
      if (TypeFor != HelpFor)
        return fail(Error, At + "TYPE for " + TypeFor +
                               " not preceded by its HELP line");
      continue;
    }
    if (Line[0] == '#')
      continue; // Other comments are legal.
    size_t Sp = Line.find(' ');
    if (Sp == std::string::npos)
      return fail(Error, At + "sample line without a value");
    // Metric name without the label set; histograms expose their
    // samples under the _bucket/_sum/_count suffixes of the TYPE name.
    std::string Name = Line.substr(0, std::min(Sp, Line.find('{')));
    bool Matches = Name == TypeFor;
    if (!Matches && TypeKind == "histogram")
      Matches = Name == TypeFor + "_bucket" || Name == TypeFor + "_sum" ||
                Name == TypeFor + "_count";
    if (!Matches)
      return fail(Error,
                  At + "sample " + Name + " not preceded by its TYPE line");
    if (TypeKind == "counter" &&
        (Name.size() < 6 || Name.compare(Name.size() - 6, 6, "_total") != 0))
      return fail(Error, At + "counter " + Name + " does not end in _total");
    if (!Seen.insert(Line.substr(0, Sp)).second)
      return fail(Error, At + "duplicate metric " + Line.substr(0, Sp));
  }
  return true;
}
