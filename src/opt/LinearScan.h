//===- opt/LinearScan.h - Linear-scan register allocation -------*- C++ -*-===//
///
/// \file
/// Poletto-Sarkar linear-scan register allocation over live intervals in
/// a reverse-postorder linearization. IA-32 JITs of the paper's era (the
/// IBM JIT included) allocate the seven usable integer registers this
/// way; the pass completes the baseline pipeline whose cost the Figure 11
/// ratios are measured against, and its spill statistics are part of the
/// compile result.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_OPT_LINEARSCAN_H
#define SPF_OPT_LINEARSCAN_H

#include "opt/Liveness.h"

namespace spf {
namespace opt {

/// One value's live interval over the linearized instruction order.
struct LiveInterval {
  unsigned ValueId = 0;
  unsigned Start = 0;
  unsigned End = 0;
  int Register = -1; ///< Assigned register, or -1 when spilled.
};

/// Result of allocating one method.
struct AllocationResult {
  std::vector<LiveInterval> Intervals; ///< Sorted by Start.
  unsigned NumRegisters = 7;
  unsigned Spills = 0;
  unsigned MaxPressure = 0; ///< Peak simultaneous live intervals.
};

/// Allocates \p M 's values to \p NumRegisters registers.
AllocationResult allocateRegisters(ir::Method *M, const Liveness &LV,
                                   unsigned NumRegisters = 7);

} // namespace opt
} // namespace spf

#endif // SPF_OPT_LINEARSCAN_H
