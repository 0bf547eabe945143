//===- tools/spf-report.cpp - Report inspection and regression gating ----===//
///
/// \file
/// The report toolchain the CI gates run through:
///
///   spf-report show <report.json>
///     CPI-stack table (one row per cell) and the per-site top-K stall
///     attribution tables.
///
///   spf-report validate <report.json>...
///     Structural validation: recognized schema, required keys, and the
///     cycle-attribution sum invariant on every ran cell's breakdown.
///     Exit 1 on the first violation. `--validate` is accepted
///     as an alias for the subcommand spelling.
///
///   spf-report diff <baseline.json> <fresh.json> [thresholds]
///     Regression gate through harness::diffReports — the same
///     comparator bench/adaptation --check-against uses — with
///     configurable thresholds. Exit 1 when any threshold trips (or the
///     reports are not comparable), 0 otherwise.
///
//===----------------------------------------------------------------------===//

#include "harness/JsonReader.h"
#include "harness/ReportDiff.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace spf;
using namespace spf::harness;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: spf-report show <report.json>\n"
      "       spf-report validate <report.json>...\n"
      "       spf-report diff <baseline.json> <fresh.json> [options]\n"
      "\n"
      "diff options (defaults reproduce the CI gates):\n"
      "  --max-recovery-drop <D>         adaptation recovery may drop at\n"
      "                                  most D below baseline (default 0.2)\n"
      "  --max-cycles-increase-pct <P>   per-cell cycles may grow at most\n"
      "                                  P%% over baseline (default 2)\n");
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

double parseDoubleArg(const char *Flag, const char *S) {
  char *End = nullptr;
  double V = std::strtod(S, &End);
  if (End == S || *End != '\0') {
    std::fprintf(stderr, "spf-report: %s: expected a number, got '%s'\n",
                 Flag, S);
    std::exit(2);
  }
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
    std::string Id = C.getString("group") + "/" + C.getString("workload") +
                     "/" + C.getString("algorithm");
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
  for (const JsonValue &C : Cells.array()) {
    if (!C.has("top_sites") ||
        C.get("top_sites").kind() != JsonValue::Kind::Array ||
        C.get("top_sites").array().empty())
      continue;
    std::printf("\ntop stall sites: %s/%s/%s\n", C.getString("group").c_str(),
                C.getString("workload").c_str(),
                C.getString("algorithm").c_str());
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
  std::printf("%s: valid %s report (nothing to show; use diff)\n",
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

// -- diff ----------------------------------------------------------------

int cmdDiff(const std::vector<std::string> &Args) {
  DiffThresholds T;
  std::vector<std::string> Files;
  for (size_t I = 0; I != Args.size(); ++I) {
    const std::string &A = Args[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= Args.size()) {
        std::fprintf(stderr, "spf-report: %s: missing value\n", A.c_str());
        std::exit(2);
      }
      return Args[++I].c_str();
    };
    if (A == "--max-recovery-drop")
      T.RecoveryDrop = parseDoubleArg(A.c_str(), Next());
    else if (A == "--max-cycles-increase-pct")
      T.CyclesIncreaseFrac = parseDoubleArg(A.c_str(), Next()) / 100.0;
    else if (!A.empty() && A[0] == '-')
      return usage();
    else
      Files.push_back(A);
  }
  if (Files.size() != 2)
    return usage();
  std::unique_ptr<JsonValue> Ref = loadJson(Files[0]);
  std::unique_ptr<JsonValue> Got = loadJson(Files[1]);
  if (!Ref || !Got)
    return 2;
  DiffResult D = diffReports(*Ref, *Got, T);
  if (!D.Comparable) {
    std::fprintf(stderr, "spf-report: %s\n", D.Error.c_str());
    return 1;
  }
  std::printf("schema: %s\n", D.Schema.c_str());
  unsigned Regressions = 0;
  for (const DiffFinding &F : D.Findings) {
    if (F.Regression)
      ++Regressions;
    std::printf("%s %-52s ref=%-14g got=%-14g %s\n",
                F.Regression ? "REGRESSION" : "        ok", F.Where.c_str(),
                F.Ref, F.Got, F.Detail.c_str());
  }
  if (D.Findings.empty())
    std::printf("no differences\n");
  std::printf("%u regression%s\n", Regressions, Regressions == 1 ? "" : "s");
  return Regressions ? 1 : 0;
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
  if (Cmd == "validate" || Cmd == "--validate")
    return cmdValidate(Args);
  if (Cmd == "diff" || Cmd == "--diff")
    return cmdDiff(Args);
  return usage();
}
