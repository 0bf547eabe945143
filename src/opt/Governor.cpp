//===- opt/Governor.cpp ---------------------------------------------------===//

#include "opt/Governor.h"

#include "obs/DecisionLog.h"

#include <cstdint>
#include <cstdio>

using namespace spf;
using namespace spf::opt;

namespace {

/// Resolved tagged fills (useful + late + unused) a site needs in one
/// epoch before its accuracy is trusted; below this it keeps its code.
constexpr uint64_t MinResolved = 32;
/// Resolved-accuracy floor (useful / resolved); below it the site is
/// quarantined. Set from measurement, not from a bandwidth model: on both
/// paper machines the scale-0.1 adaptation bench shows prefetching
/// turning net-negative below roughly 70% accuracy, where the
/// evicted-unused fills pollute more than the useful ones cover.
constexpr double AccuracyFloor = 0.7;
/// Fresh quarantines in one epoch that escalate to re-inspection.
constexpr unsigned ReinspectQuorum = 2;
/// Re-inspections allowed per run (each strips + re-JITs every unit).
constexpr unsigned MaxReinspects = 1;

/// "site#N" label for DecisionLog events (sites here are runtime
/// SiteIds, not IR values, so obs::siteLabel does not apply).
std::string siteTag(exec::SiteId Site) {
  char Buf[32];
  std::snprintf(Buf, sizeof Buf, "site#%u", Site);
  return Buf;
}

void logQuarantine(exec::SiteId Site, uint64_t Resolved, double Accuracy) {
  obs::DecisionLog *DL = obs::DecisionScope::current();
  if (!DL)
    return;
  char Detail[96];
  std::snprintf(Detail, sizeof Detail, "resolved=%llu accuracy=%.2f",
                static_cast<unsigned long long>(Resolved), Accuracy);
  DL->event("governor", "quarantine", siteTag(Site), Detail, 0, Resolved,
            Accuracy);
}

void logReinspect(unsigned FreshQuarantines) {
  obs::DecisionLog *DL = obs::DecisionScope::current();
  if (!DL)
    return;
  // A whole-program escalation: no site, and its evidence is the count
  // of sites quarantined this epoch.
  char Detail[48];
  std::snprintf(Detail, sizeof Detail, "fresh_quarantines=%u",
                FreshQuarantines);
  DL->event("governor", "reinspect", "", Detail, 0, FreshQuarantines);
}

} // namespace

EpochVerdict Governor::endEpoch(const std::vector<sim::SiteStats> &Cumulative) {
  EpochVerdict V;
  if (States.size() < Cumulative.size())
    States.resize(Cumulative.size());

  for (size_t I = 0; I != Cumulative.size(); ++I) {
    const sim::SiteStats &Cum = Cumulative[I];
    SiteState &St = States[I];
    // The epoch's fresh evidence: cumulative minus last snapshot.
    uint64_t Useful = Cum.SwUseful - St.Prev.SwUseful;
    uint64_t Resolved = Useful + (Cum.SwLate - St.Prev.SwLate) +
                        (Cum.SwUnused - St.Prev.SwUnused);
    St.Prev = Cum;
    if (St.Quarantined || Resolved < MinResolved)
      continue; // Suppressed, or not enough evidence this epoch.
    double Accuracy = static_cast<double>(Useful) / Resolved;
    if (Accuracy >= AccuracyFloor)
      continue; // Healthy.

    St.Quarantined = true;
    ++NumQuarantined;
    V.Quarantined.push_back(static_cast<exec::SiteId>(I));
    logQuarantine(static_cast<exec::SiteId>(I), Resolved, Accuracy);
  }

  if (V.Quarantined.size() >= ReinspectQuorum &&
      Reinspected < MaxReinspects) {
    // The stride model itself is suspect (heap reordered / phase change):
    // escalate to a full re-inspection against the current layout.
    ++Reinspected;
    V.Reinspect = true;
    logReinspect(static_cast<unsigned>(V.Quarantined.size()));
  }
  return V;
}

void Governor::noteReinspected(const std::vector<sim::SiteStats> &Cumulative) {
  NumQuarantined = 0;
  States.assign(Cumulative.size(), SiteState{});
  for (size_t I = 0; I != Cumulative.size(); ++I)
    States[I].Prev = Cumulative[I];
}
