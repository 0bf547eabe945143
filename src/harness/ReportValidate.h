//===- harness/ReportValidate.h - Report validation -------------*- C++ -*-===//
///
/// \file
/// Structural validation of the JSON reports the bench binaries write,
/// behind `spf-report validate` (tools/spf-report.cpp). Two schemas are
/// understood, dispatched on the report's "schema" key: spf-sweep-v4
/// (bench/sweep) and spf-bench-adaptation-v1 (bench/adaptation). Extra
/// keys are tolerated (checked-in reports may carry hand-written
/// provenance notes).
///
/// Every number in a report comes from a deterministic simulation, so
/// regressions are gated by comparing a fresh report with a committed
/// one for equality, not here.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_HARNESS_REPORTVALIDATE_H
#define SPF_HARNESS_REPORTVALIDATE_H

#include "harness/JsonReader.h"

#include <string>

namespace spf {
namespace harness {

/// Structural validation of one report: recognized schema, required
/// keys present, and — on every ran spf-sweep-v4 cell — the attribution
/// invariant (cycle_breakdown categories sum to the cell's cycles).
/// Returns false and sets \p Error on the first violation.
bool validateReport(const JsonValue &V, std::string *Error);

} // namespace harness
} // namespace spf

#endif // SPF_HARNESS_REPORTVALIDATE_H
