//===- opt/Governor.h - Online prefetch-health governor ---------*- C++ -*-===//
///
/// \file
/// Epoch-driven re-decision of per-site prefetching. The static pipeline
/// (inspect -> plan -> codegen) decides *once*, from strides observed at
/// compile time; a copying collector that reorders objects, or a workload
/// phase change, silently invalidates those strides and turns the
/// prefetches into pure cache pollution. The governor closes the loop:
/// after each epoch it reads the per-site prefetch-health counters that
/// sim::MemorySystem accumulates (issued / useful / late / evicted-unused
/// tagged fills) and makes two decisions:
///
///   - Quarantine  a site with enough fresh evidence and too few useful
///                 fills: suppress its prefetch code for good, modeling
///                 the JIT nop-patching it.
///   - Reinspect   enough sites quarantined in one epoch that the stride
///                 model itself is suspect (e.g. the GC shuffled the
///                 heap): strip all prefetch code and re-run inspection +
///                 JIT against the *current* heap layout, once per run.
///
/// The verdict is pure data (the workload runner applies it through
/// exec::Interpreter::suppressPrefetchSite / the re-JIT path) and each
/// decision is recorded as a Pass="governor" DecisionLog event.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_OPT_GOVERNOR_H
#define SPF_OPT_GOVERNOR_H

#include "exec/AccessSink.h"
#include "sim/MemorySystem.h"

#include <vector>

namespace spf {
namespace opt {

/// What one epoch's evaluation decided.
struct EpochVerdict {
  /// Sites quarantined this epoch, in ascending SiteId order.
  std::vector<exec::SiteId> Quarantined;
  /// Escalate: the caller must strip + re-JIT and then call
  /// noteReinspected().
  bool Reinspect = false;
};

/// Per-site epoch-over-epoch health evaluator. Single-threaded, one per
/// workload run; holds the previous epoch's cumulative counters so each
/// evaluation sees only the fresh epoch's evidence.
class Governor {
public:
  /// Evaluates the epoch that just ended. \p Cumulative is the memory
  /// system's full per-site table (cumulative since the run started);
  /// the governor diffs it against its snapshot from the previous call.
  /// Every decision is already recorded on the active DecisionLog
  /// (Pass="governor").
  EpochVerdict endEpoch(const std::vector<sim::SiteStats> &Cumulative);

  /// Resets per-site state after the caller performed a re-inspection:
  /// quarantines are void (the code was rebuilt) and the health baseline
  /// restarts at \p Cumulative.
  void noteReinspected(const std::vector<sim::SiteStats> &Cumulative);

  /// Sites currently quarantined / re-inspections performed (reports).
  unsigned quarantinedSites() const { return NumQuarantined; }
  unsigned reinspections() const { return Reinspected; }

private:
  struct SiteState {
    sim::SiteStats Prev;
    bool Quarantined = false;
  };

  std::vector<SiteState> States;
  unsigned NumQuarantined = 0;
  unsigned Reinspected = 0;
};

} // namespace opt
} // namespace spf

#endif // SPF_OPT_GOVERNOR_H
