//===- harness/ReportDiff.cpp ---------------------------------------------===//

#include "harness/ReportDiff.h"

#include <cstdio>

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

// -- spf-sweep-v4 --------------------------------------------------------

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

/// The cycle-attribution categories of one cycle_breakdown, summed.
/// Level keys are l1..lN — probe upward until absent.
uint64_t sumCategories(const JsonValue &B) {
  uint64_t Sum = B.getU64("compute") + B.getU64("gc_pause") +
                 B.getU64("wait") + B.getU64("mem_penalty") +
                 B.getU64("translation") + B.getU64("guard_fault") +
                 B.getU64("prefetch_issue");
  for (unsigned L = 1; B.has("l" + std::to_string(L)); ++L)
    Sum += B.getU64("l" + std::to_string(L));
  return Sum;
}

bool validateSweep(const JsonValue &V, std::string *Error) {
  const JsonValue &Cells = V.get("cells");
  if (Cells.kind() != JsonValue::Kind::Array)
    return fail(Error, "spf-sweep-v4: missing cells array");
  unsigned I = 0;
  for (const JsonValue &C : Cells.array()) {
    std::string Id = "cell " + std::to_string(I++) + " (" + cellId(C) + ")";
    for (const char *Key : {"group", "workload", "machine", "algorithm"})
      if (C.getString(Key).empty())
        return fail(Error, Id + ": missing " + Key);
    if (!C.has("cycles") || !C.has("site_stats_hash"))
      return fail(Error, Id + ": missing cycles/site_stats_hash");
    if (!C.getBool("ran"))
      continue;
    // The attribution invariant, checked end to end: every simulated
    // cycle of a ran cell charged to exactly one category.
    if (!C.has("cycle_breakdown"))
      return fail(Error, Id + ": ran cell without cycle_breakdown");
    const JsonValue &B = C.get("cycle_breakdown");
    uint64_t Sum = sumCategories(B);
    if (Sum != B.getU64("total"))
      return fail(Error, Id + ": cycle_breakdown categories sum to " +
                             std::to_string(Sum) + ", total says " +
                             std::to_string(B.getU64("total")));
    if (Sum != C.getU64("cycles"))
      return fail(Error, Id + ": cycle_breakdown total " +
                             std::to_string(Sum) + " != cycles " +
                             std::to_string(C.getU64("cycles")));
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
  else if (RefSchema == "spf-sweep-v4")
    diffSweep(Ref, Got, T, Out);
  else {
    Out.Comparable = false;
    Out.Error = "unknown schema: " + RefSchema;
  }
  return Out;
}

bool harness::validateReport(const JsonValue &V, std::string *Error) {
  std::string Schema = V.getString("schema");
  if (Schema == "spf-sweep-v4")
    return validateSweep(V, Error);
  if (Schema == "spf-bench-adaptation-v1")
    return validateAdaptation(V, Error);
  return fail(Error, Schema.empty() ? "missing schema key"
                                    : "unknown schema: " + Schema);
}
