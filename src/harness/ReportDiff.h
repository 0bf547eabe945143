//===- harness/ReportDiff.h - Report validation and regression diff -*- C++ -*-===//
///
/// \file
/// The one comparator behind every report-level regression gate: the
/// `spf-report` CLI (tools/spf-report.cpp), the CI adaptation check, and
/// `bench/adaptation --check-against` all route through diffReports, so
/// a threshold changed here changes every gate at once.
///
/// Two schemas are understood, dispatched on the reports' "schema" key
/// (both sides must agree):
///  - spf-bench-adaptation-v1: per-variant/per-workload recovery; an
///    absolute recovery drop beyond the threshold is a regression.
///  - spf-sweep-v2: per-cell simulated cycles, matched by
///    (group, workload, machine, algorithm, prefetch_mode); a
///    fractional cycle increase beyond the threshold is a regression.
///
/// Extra keys on either side are tolerated everywhere (checked-in
/// baselines carry hand-written provenance notes), and cells/modes
/// present on only one side are reported but never regressions —
/// growing a sweep must not fail the gate.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_HARNESS_REPORTDIFF_H
#define SPF_HARNESS_REPORTDIFF_H

#include "harness/JsonReader.h"

#include <string>
#include <vector>

namespace spf {
namespace harness {

/// Regression thresholds; every gate knob of the CLI maps onto one
/// field. Defaults reproduce the historic CI gates.
struct DiffThresholds {
  /// spf-bench-adaptation-v1: absolute recovery drop (recovery is a
  /// 0..1 fraction) that counts as a regression.
  double RecoveryDrop = 0.20;
  /// spf-sweep-v2: fractional per-cell cycle increase that counts as a
  /// regression. Simulated cycles are deterministic, so the default is
  /// tight; any nonzero delta is still reported as informational.
  double CyclesIncreaseFrac = 0.02;
};

/// One compared quantity. Regression=true means the threshold tripped;
/// false findings are informational (improvements, one-sided entries).
struct DiffFinding {
  std::string Where;  ///< e.g. "variants.mark-sweep.db.recovery".
  double Ref = 0.0;
  double Got = 0.0;
  bool Regression = false;
  std::string Detail; ///< Human-readable one-liner.
};

struct DiffResult {
  /// Set when the reports could not be compared at all (missing or
  /// mismatched schema); Error explains.
  bool Comparable = true;
  std::string Error;
  std::string Schema; ///< The common schema when Comparable.
  std::vector<DiffFinding> Findings;
  bool regressed() const {
    if (!Comparable)
      return true;
    for (const DiffFinding &F : Findings)
      if (F.Regression)
        return true;
    return false;
  }
};

/// Diffs \p Got (the fresh run) against \p Ref (the checked-in
/// baseline) under \p T. Never throws; uncomparable inputs come back
/// with Comparable=false (which regressed() treats as a failure).
DiffResult diffReports(const JsonValue &Ref, const JsonValue &Got,
                       const DiffThresholds &T);

/// Structural validation of one report: recognized schema, required
/// keys present, and — for spf-sweep-v2 cells carrying a
/// cycle_breakdown — the attribution invariant (categories sum to the
/// cell's cycles, timeline samples monotone and internally consistent).
/// Returns false and sets \p Error on the first violation.
bool validateReport(const JsonValue &V, std::string *Error);

/// Validation of Prometheus text-format output (obs::StatRegistry
/// writeProm): every sample line preceded by its # HELP and # TYPE
/// lines, counter names ending in _total, no duplicate metric names.
bool validatePromText(const std::string &Text, std::string *Error);

} // namespace harness
} // namespace spf

#endif // SPF_HARNESS_REPORTDIFF_H
