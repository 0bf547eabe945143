//===- opt/Governor.cpp ---------------------------------------------------===//

#include "opt/Governor.h"

#include "obs/DecisionLog.h"

#include <cstdio>

using namespace spf;
using namespace spf::opt;

const char *opt::governorActionName(GovernorAction A) {
  switch (A) {
  case GovernorAction::Keep:
    return "keep";
  case GovernorAction::Retune:
    return "retune";
  case GovernorAction::Quarantine:
    return "quarantine";
  case GovernorAction::Reinspect:
    return "reinspect";
  }
  return "?";
}

namespace {

/// "site#N" label for DecisionLog events (sites here are runtime
/// SiteIds, not IR values, so obs::siteLabel does not apply).
std::string siteTag(exec::SiteId Site) {
  char Buf[32];
  std::snprintf(Buf, sizeof Buf, "site#%u", Site);
  return Buf;
}

void logDecision(const GovernorDecision &D) {
  obs::DecisionLog *DL = obs::DecisionScope::current();
  if (!DL)
    return;
  char Detail[96];
  if (D.Action == GovernorAction::Reinspect) {
    // A whole-program escalation: no site, and its evidence is the count
    // of sites quarantined this epoch.
    std::snprintf(Detail, sizeof Detail, "fresh_quarantines=%llu",
                  static_cast<unsigned long long>(D.Resolved));
    DL->event("governor", governorActionName(D.Action), "", Detail, 0,
              D.Resolved);
    return;
  }
  std::snprintf(Detail, sizeof Detail, "resolved=%llu accuracy=%.2f",
                static_cast<unsigned long long>(D.Resolved), D.Accuracy);
  DL->event("governor", governorActionName(D.Action), siteTag(D.Site),
            Detail, D.ExtraDistance, D.Resolved, D.Accuracy);
}

} // namespace

std::vector<GovernorDecision>
Governor::endEpoch(const std::vector<sim::SiteStats> &Cumulative) {
  std::vector<GovernorDecision> Decisions;
  if (States.size() < Cumulative.size())
    States.resize(Cumulative.size());

  unsigned FreshQuarantines = 0;
  for (size_t I = 0; I != Cumulative.size(); ++I) {
    const sim::SiteStats &Cum = Cumulative[I];
    SiteState &St = States[I];
    // The epoch's fresh evidence: cumulative minus last snapshot.
    uint64_t Useful = Cum.SwUseful - St.Prev.SwUseful;
    uint64_t Late = Cum.SwLate - St.Prev.SwLate;
    uint64_t Unused = Cum.SwUnused - St.Prev.SwUnused;
    St.Prev = Cum;
    if (St.Quarantined)
      continue; // Suppressed sites issue nothing; nothing to re-decide.

    uint64_t Resolved = Useful + Late + Unused;
    if (Resolved < Cfg.MinResolved)
      continue; // Keep: not enough evidence this epoch.
    double Accuracy = static_cast<double>(Useful) / Resolved;
    if (Accuracy >= Cfg.AccuracyFloor)
      continue; // Keep: healthy.

    GovernorDecision D;
    D.Site = static_cast<exec::SiteId>(I);
    D.Resolved = Resolved;
    D.Accuracy = Accuracy;
    double LateFrac = static_cast<double>(Late) / Resolved;
    if (LateFrac >= Cfg.LateFraction && St.Retunes < Cfg.MaxRetunes) {
      // The fills arrive — just not in time. Stretch the lookahead.
      ++St.Retunes;
      ++NumRetunes;
      St.ExtraDistance += Cfg.RetuneStep;
      D.Action = GovernorAction::Retune;
      D.ExtraDistance = St.ExtraDistance;
    } else {
      St.Quarantined = true;
      ++NumQuarantined;
      ++FreshQuarantines;
      D.Action = GovernorAction::Quarantine;
    }
    logDecision(D);
    Decisions.push_back(D);
  }

  if (FreshQuarantines >= Cfg.ReinspectQuorum &&
      ReinspectsUsed < Cfg.MaxReinspects) {
    // The stride model itself is suspect (heap reordered / phase change):
    // escalate to a full re-inspection against the current layout.
    ++ReinspectsUsed;
    GovernorDecision D;
    D.Action = GovernorAction::Reinspect;
    D.Resolved = FreshQuarantines;
    logDecision(D);
    Decisions.push_back(D);
  }

  return Decisions;
}

void Governor::noteReinspected(const std::vector<sim::SiteStats> &Cumulative) {
  NumQuarantined = 0;
  States.assign(Cumulative.size(), SiteState{});
  for (size_t I = 0; I != Cumulative.size(); ++I)
    States[I].Prev = Cumulative[I];
}
