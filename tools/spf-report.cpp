//===- tools/spf-report.cpp - Report inspection and validation -----------===//
///
/// \file
/// Reads the JSON reports the bench binaries write:
///
///   spf-report show <report.json>
///     CPI-stack table (one row per cell), then per cell its top-K stall
///     attribution table and its compile and governor decisions, one
///     line each.
///
///   spf-report validate <report.json>...
///     Structural validation: recognized schema, required keys, and the
///     cycle-attribution sum invariant on every ran cell's breakdown.
///     Exit 1 on the first violation.
///
/// Reports are deterministic: a regression gate compares a fresh report
/// with a committed one byte for byte (`cmp`).
///
//===----------------------------------------------------------------------===//

#include "harness/JsonReader.h"
#include "harness/ReportValidate.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace spf;
using namespace spf::harness;

namespace {

int usage() {
  std::fprintf(stderr, "usage: spf-report show <report.json>\n"
                       "       spf-report validate <report.json>...\n");
  return 2;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream IS(Path, std::ios::binary);
  if (!IS) {
    std::fprintf(stderr, "spf-report: cannot read %s\n", Path.c_str());
    return false;
  }
  std::ostringstream SS;
  SS << IS.rdbuf();
  Out = SS.str();
  return true;
}

std::unique_ptr<JsonValue> loadJson(const std::string &Path) {
  std::string Text;
  if (!readFile(Path, Text))
    return nullptr;
  std::string Error;
  std::unique_ptr<JsonValue> V = JsonValue::parse(Text, &Error);
  if (!V)
    std::fprintf(stderr, "spf-report: %s: %s\n", Path.c_str(),
                 Error.c_str());
  return V;
}

// -- show ----------------------------------------------------------------

/// Percentage cell, padded for the CPI-stack table.
std::string pct(uint64_t Part, uint64_t Whole) {
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "%5.1f",
                Whole ? 100.0 * static_cast<double>(Part) /
                            static_cast<double>(Whole)
                      : 0.0);
  return Buf;
}

/// "group/workload/algorithm", the label of one report cell.
std::string cellId(const JsonValue &C) {
  return C.getString("group") + "/" + C.getString("workload") + "/" +
         C.getString("algorithm");
}

/// One decision of a cell's `decisions` array as one line:
///   method/loop@N [pass] event site stride=S samples=N conf=C (detail)
/// with each optional field printed only when the record carries it.
std::string formatDecision(const JsonValue &D) {
  std::string Line = D.getString("method") + "/loop@" +
                     std::to_string(D.getU64("loop")) + " [" +
                     D.getString("pass") + "] " + D.getString("event");
  if (D.has("site"))
    Line += " " + D.getString("site");
  if (D.has("stride"))
    Line += " stride=" +
            std::to_string(static_cast<long long>(D.getDouble("stride")));
  if (D.has("samples"))
    Line += " samples=" + std::to_string(D.getU64("samples"));
  if (D.has("confidence")) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), " conf=%.2f", D.getDouble("confidence"));
    Line += Buf;
  }
  if (D.has("detail"))
    Line += " (" + D.getString("detail") + ")";
  return Line;
}

int showSweep(const JsonValue &V) {
  const JsonValue &Cells = V.get("cells");
  if (Cells.kind() != JsonValue::Kind::Array) {
    std::fprintf(stderr, "spf-report: no cells array\n");
    return 2;
  }
  // Column set: union of level keys across cells (machines differ).
  unsigned MaxLevels = 0;
  for (const JsonValue &C : Cells.array())
    if (C.has("cycle_breakdown")) {
      unsigned L = 1;
      while (C.get("cycle_breakdown").has("l" + std::to_string(L)))
        ++L;
      if (L - 1 > MaxLevels)
        MaxLevels = L - 1;
    }
  if (!MaxLevels) {
    std::printf("no cycle_breakdown in this report\n");
    return 0;
  }
  std::printf("CPI stack (%% of simulated cycles)\n");
  std::printf("%-44s %12s %5s %5s", "cell", "cycles", "cmp", "gc");
  for (unsigned L = 1; L <= MaxLevels; ++L)
    std::printf("   l%u ", L);
  std::printf("%5s %5s %5s %5s %5s\n", "wait", "mem", "xlat", "gflt", "pfi");
  for (const JsonValue &C : Cells.array()) {
    if (!C.has("cycle_breakdown"))
      continue;
    const JsonValue &B = C.get("cycle_breakdown");
    uint64_t Total = B.getU64("total");
    std::string Id = cellId(C);
    std::printf("%-44s %12llu %s %s", Id.c_str(),
                static_cast<unsigned long long>(Total),
                pct(B.getU64("compute"), Total).c_str(),
                pct(B.getU64("gc_pause"), Total).c_str());
    for (unsigned L = 1; L <= MaxLevels; ++L)
      std::printf(" %s", pct(B.getU64("l" + std::to_string(L)), Total).c_str());
    std::printf(" %s %s %s %s %s\n", pct(B.getU64("wait"), Total).c_str(),
                pct(B.getU64("mem_penalty"), Total).c_str(),
                pct(B.getU64("translation"), Total).c_str(),
                pct(B.getU64("guard_fault"), Total).c_str(),
                pct(B.getU64("prefetch_issue"), Total).c_str());
  }
  auto NonEmpty = [](const JsonValue &C, const char *Key) {
    return C.has(Key) && C.get(Key).kind() == JsonValue::Kind::Array &&
           !C.get(Key).array().empty();
  };
  for (const JsonValue &C : Cells.array()) {
    std::string Id = cellId(C);
    if (NonEmpty(C, "top_sites")) {
      std::printf("\ntop stall sites: %s\n", Id.c_str());
      std::printf("  %6s %12s %14s %12s %12s\n", "site", "loads",
                  "stall_cycles", "l1_misses", "dtlb_misses");
      for (const JsonValue &S : C.get("top_sites").array())
        std::printf("  %6llu %12llu %14llu %12llu %12llu\n",
                    static_cast<unsigned long long>(S.getU64("site")),
                    static_cast<unsigned long long>(S.getU64("loads")),
                    static_cast<unsigned long long>(S.getU64("stall_cycles")),
                    static_cast<unsigned long long>(S.getU64("l1_misses")),
                    static_cast<unsigned long long>(S.getU64("dtlb_misses")));
    }
    if (NonEmpty(C, "decisions")) {
      const std::vector<JsonValue> &Ds = C.get("decisions").array();
      std::printf("\ndecisions: %s (%zu)\n", Id.c_str(), Ds.size());
      for (const JsonValue &D : Ds)
        std::printf("  %s\n", formatDecision(D).c_str());
    }
  }
  return 0;
}

int cmdShow(const std::vector<std::string> &Args) {
  if (Args.size() != 1)
    return usage();
  std::unique_ptr<JsonValue> V = loadJson(Args[0]);
  if (!V)
    return 2;
  std::string Schema = V->getString("schema");
  if (Schema == "spf-sweep-v4")
    return showSweep(*V);
  // Non-sweep schemas: validation doubles as the useful summary.
  std::string Error;
  if (!validateReport(*V, &Error)) {
    std::fprintf(stderr, "spf-report: %s: %s\n", Args[0].c_str(),
                 Error.c_str());
    return 1;
  }
  std::printf("%s: valid %s report (nothing to show)\n",
              Args[0].c_str(), Schema.c_str());
  return 0;
}

// -- validate ------------------------------------------------------------

int cmdValidate(const std::vector<std::string> &Files) {
  if (Files.empty())
    return usage();
  for (const std::string &Path : Files) {
    std::unique_ptr<JsonValue> V = loadJson(Path);
    if (!V)
      return 2;
    std::string Error;
    if (!validateReport(*V, &Error)) {
      std::fprintf(stderr, "spf-report: %s: %s\n", Path.c_str(),
                   Error.c_str());
      return 1;
    }
    std::printf("%s: ok\n", Path.c_str());
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  if (Args.empty())
    return usage();
  std::string Cmd = Args[0];
  Args.erase(Args.begin());
  if (Cmd == "show")
    return cmdShow(Args);
  if (Cmd == "validate")
    return cmdValidate(Args);
  return usage();
}
