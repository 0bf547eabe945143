//===- harness/ReportValidate.cpp -----------------------------------------===//

#include "harness/ReportValidate.h"

using namespace spf;
using namespace spf::harness;

namespace {

/// A sweep cell's identity, for diagnostics.
std::string cellId(const JsonValue &C) {
  std::string Id = C.getString("group") + "/" + C.getString("workload") +
                   "/" + C.getString("machine") + "/" +
                   C.getString("algorithm");
  if (C.has("prefetch_mode"))
    Id += "/" + C.getString("prefetch_mode");
  return Id;
}

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

bool harness::validateReport(const JsonValue &V, std::string *Error) {
  std::string Schema = V.getString("schema");
  if (Schema == "spf-sweep-v4")
    return validateSweep(V, Error);
  if (Schema == "spf-bench-adaptation-v1")
    return validateAdaptation(V, Error);
  return fail(Error, Schema.empty() ? "missing schema key"
                                    : "unknown schema: " + Schema);
}
