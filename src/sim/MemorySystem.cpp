//===- sim/MemorySystem.cpp -----------------------------------------------===//

#include "sim/MemorySystem.h"

#include <cassert>

using namespace spf;
using namespace spf::sim;

static unsigned lastLineBytes(const MachineConfig &Cfg) {
  return Cfg.Levels.empty() ? 64 : Cfg.Levels.back().Geometry.LineBytes;
}

static unsigned pageShiftOf(uint64_t PageBytes) {
  // Power-of-two pages take the shift path; anything else (rejected by
  // validate(), but MemorySystem stays defensive) divides.
  if (PageBytes == 0 || (PageBytes & (PageBytes - 1)) != 0)
    return 0;
  unsigned S = 0;
  while ((uint64_t(1) << S) < PageBytes)
    ++S;
  return S;
}

MemorySystem::MemorySystem(const MachineConfig &Cfg)
    : Cfg(Cfg), Dtlb(Cfg.TlbEntries, Cfg.PageBytes),
      HwPf(Cfg.HwPrefetchStreams, Cfg.HwPrefetchDegree, lastLineBytes(Cfg),
           Cfg.PageBytes),
      Rpt(Cfg.RptEntries, Cfg.HwPrefetchDegree, Cfg.PageBytes),
      StreamActive(Cfg.effectiveHwPrefetch() == HwPrefetchKind::Stream),
      RptActive(Cfg.effectiveHwPrefetch() == HwPrefetchKind::Rpt),
      HwTrainThreshold(Cfg.Levels.size() > 1 ? Cfg.Levels[1].HitCycles
                                             : Cfg.MemPenalty),
      PageShift(pageShiftOf(Cfg.PageBytes)) {
  assert(Cfg.Levels.size() >= 2 && "MachineConfig::validate() requires >= 2 "
                                   "cache levels");
  CacheLevels.reserve(Cfg.Levels.size());
  for (const CacheLevel &L : Cfg.Levels)
    CacheLevels.emplace_back(L.Geometry);
  Acct.Level.assign(Cfg.Levels.size(), 0);
  // RPT effectiveness is tracked whenever the RPT runs (its fills only
  // land in the last level, so the tags there cost demand hits nothing).
  if (RptActive)
    CacheLevels.back().setTagObserver(*this);
}

MemorySystem::MemorySystem(const MemorySystem &Other)
    : exec::AccessSink(Other), PrefetchTagObserver(Other), Cfg(Other.Cfg),
      CacheLevels(Other.CacheLevels), Dtlb(Other.Dtlb), HwPf(Other.HwPf),
      Rpt(Other.Rpt), StreamActive(Other.StreamActive),
      RptActive(Other.RptActive), HwTrainThreshold(Other.HwTrainThreshold),
      PageShift(Other.PageShift), SwHealth(Other.SwHealth),
      Cycles(Other.Cycles), Stats(Other.Stats), Acct(Other.Acct),
      Sites(Other.Sites) { // HwTargets is per-call scratch.
  const PrefetchTagObserver *OtherObs = &Other;
  for (Cache &C : CacheLevels)
    if (C.tagObserver() == OtherObs)
      C.setTagObserver(*this);
}

void sim::clearPrefetchHealth(MemoryStats &Stats,
                              std::vector<SiteStats> &Sites) {
  Stats.SwPrefetchesUseful = Stats.SwPrefetchesLate =
      Stats.SwPrefetchesUnused = 0;
  for (SiteStats &S : Sites)
    S.SwIssued = S.SwUseful = S.SwLate = S.SwUnused = 0;
}

void MemorySystem::enablePrefetchHealth() {
  if (SwHealth)
    return;
  SwHealth = true;
  // Software prefetches are tagged at their shallowest fill level and
  // guarded loads at L1 — exactly one tag per issue, so useful/late/
  // unused partition the resolved fills.
  CacheLevels[Cfg.SwFillLevel].setTagObserver(*this);
  CacheLevels[0].setTagObserver(*this);
}

void MemorySystem::prefetchedLineUsed(PfTag Kind, uint32_t Site, bool Late) {
  if (Kind == PfTag::Rpt) {
    SiteStats &S = siteFor(Site);
    if (Late) {
      ++Stats.RptPrefetchesLate;
      ++S.RptLate;
    } else {
      ++Stats.RptPrefetchesUseful;
      ++S.RptUseful;
    }
    return;
  }
  SiteStats &S = siteFor(Site);
  if (Late) {
    ++Stats.SwPrefetchesLate;
    ++S.SwLate;
  } else {
    ++Stats.SwPrefetchesUseful;
    ++S.SwUseful;
  }
}

void MemorySystem::prefetchedLineEvicted(PfTag Kind, uint32_t Site) {
  SiteStats &S = siteFor(Site);
  if (Kind == PfTag::Rpt) {
    ++Stats.RptPrefetchesUnused;
    ++S.RptUnused;
  } else {
    ++Stats.SwPrefetchesUnused;
    ++S.SwUnused;
  }
}

void MemorySystem::hwPrefetchOnMiss(uint64_t Addr) {
  if (!StreamActive)
    return;
  HwTargets.clear();
  HwPf.onDemandMiss(Addr, HwTargets);
  Cache &Last = CacheLevels.back();
  for (uint64_t Target : HwTargets)
    Last.prefetchFill(Target, Cycles + Cfg.PrefetchFillLatency);
}

void MemorySystem::rptObserveLoad(uint32_t Site, uint64_t Addr) {
  HwTargets.clear();
  Rpt.observe(Site, Addr, HwTargets);
  if (HwTargets.empty())
    return;
  // RPT fills land in the last level only, like the stream prefetcher's.
  // Fills carry the training site as their tag, so their fate (useful /
  // late / evicted-unused) lands back on that site's stats. Sites[Site]
  // exists: the observing load sized the table before we got here.
  Stats.RptPrefetchesIssued += HwTargets.size();
  Sites[Site].RptIssued += HwTargets.size();
  Cache &Last = CacheLevels.back();
  for (uint64_t Target : HwTargets)
    Last.prefetchFill(Target, Cycles + Cfg.PrefetchFillLatency, PfTag::Rpt,
                      Site);
}

uint64_t MemorySystem::walkerAccess(uint64_t PteAddr) {
  // Demand-shaped cost for one page-table entry: base hit cycles, each
  // deeper probed level's penalty, MemPenalty on a full miss. The walker
  // fills lines on the way (so a later walk sharing upper-level entries
  // is cheaper) but never counts load/store stats or trains prefetchers.
  uint64_t Cost = Cfg.Levels[0].HitCycles;
  CacheAccessResult R = CacheLevels[0].access(PteAddr, Cycles);
  if (R.Hit)
    return Cost + R.WaitCycles;
  const unsigned NumLevels = numCacheLevels();
  for (unsigned Lvl = 1; Lvl != NumLevels; ++Lvl) {
    Cost += Cfg.Levels[Lvl].HitCycles;
    CacheAccessResult Rl = CacheLevels[Lvl].access(PteAddr, Cycles);
    if (Rl.Hit)
      return Cost + Rl.WaitCycles;
  }
  return Cost + Cfg.MemPenalty;
}

uint64_t MemorySystem::pageWalk(uint64_t Addr) {
  // Radix walk: level L's entry address is the page number's upper bits
  // (a prefix index — neighbor pages share upper-level entries, so their
  // PTEs fall in the same cache lines) scaled by the entry size, tagged
  // into a per-level region that can never collide with heap addresses.
  uint64_t Page = PageShift ? (Addr >> PageShift) : (Addr / Cfg.PageBytes);
  constexpr uint64_t OffsetMask = (uint64_t(1) << 56) - 1;
  uint64_t Cost = 0;
  for (unsigned L = 0; L != Cfg.WalkLevels; ++L) {
    unsigned Shift = Cfg.WalkIndexBits * (Cfg.WalkLevels - 1 - L);
    uint64_t Index = Shift < 64 ? (Page >> Shift) : 0;
    uint64_t PteAddr =
        (uint64_t(L + 1) << 56) | ((Index * Cfg.WalkEntryBytes) & OffsetMask);
    Cost += walkerAccess(PteAddr);
  }
  return Cost;
}

uint64_t MemorySystem::translationCost(uint64_t Addr) {
  if (Cfg.Walk == TlbWalk::Flat)
    return Cfg.TlbMissPenalty;
  uint64_t Cost = pageWalk(Addr);
  ++Stats.PageWalks;
  Stats.PageWalkCycles += Cost;
  return Cost;
}

[[gnu::always_inline]] inline uint64_t
MemorySystem::demandAccess(uint64_t Addr, bool IsLoad, SiteStats *Site) {
  uint64_t Cost = Cfg.Levels[0].HitCycles;
  Acct.Level[0] += Cost;

  if (!Dtlb.access(Addr)) {
    uint64_t TransCost = translationCost(Addr);
    Cost += TransCost;
    Acct.Translation += TransCost;
    if (IsLoad) {
      ++Stats.DtlbLoadMisses;
      if (Site)
        ++Site->DtlbMisses;
    }
  }

  CacheAccessResult R1 = CacheLevels[0].access(Addr, Cycles);
  if (R1.Hit) {
    Cost += R1.WaitCycles;
    Acct.Wait += R1.WaitCycles;
    // A sizeable wait means the line was filled by an in-flight prefetch:
    // architecturally this was a miss, so keep training the hardware
    // prefetcher (otherwise software prefetching would starve it).
    if (R1.WaitCycles > HwTrainThreshold)
      hwPrefetchOnMiss(Addr);
  } else {
    if (IsLoad) {
      ++Stats.L1LoadMisses;
      if (Site)
        ++Site->L1Misses;
    } else {
      ++Stats.L1StoreMisses;
    }
    const unsigned NumLevels = numCacheLevels();
    unsigned Lvl = 1;
    for (; Lvl != NumLevels; ++Lvl) {
      Cost += Cfg.Levels[Lvl].HitCycles;
      Acct.Level[Lvl] += Cfg.Levels[Lvl].HitCycles;
      CacheAccessResult R = CacheLevels[Lvl].access(Addr, Cycles);
      if (R.Hit) {
        Cost += R.WaitCycles;
        Acct.Wait += R.WaitCycles;
        if (R.WaitCycles > HwTrainThreshold)
          hwPrefetchOnMiss(Addr);
        break;
      }
      if (IsLoad) {
        if (Lvl == 1) {
          ++Stats.L2LoadMisses;
          if (Site)
            ++Site->L2Misses;
        }
        if (Lvl == NumLevels - 1)
          ++Stats.LlcLoadMisses;
      }
    }
    if (Lvl == NumLevels) {
      Cost += Cfg.MemPenalty;
      Acct.MemPenalty += Cfg.MemPenalty;
      hwPrefetchOnMiss(Addr);
    }
  }

  Cycles += Cost;
  return Cost;
}

[[gnu::always_inline]] inline void
MemorySystem::loadBody(uint64_t Addr, exec::SiteId Site) {
  ++Stats.Loads;
  if (Site >= Sites.size())
    Sites.resize(Site + 1);
  SiteStats &S = Sites[Site];
  ++S.Loads;
  // The RPT watches the instruction stream (every execution, hit or
  // miss), keyed by load site — the simulator's stand-in for the PC.
  if (RptActive)
    rptObserveLoad(Site, Addr);
  uint64_t Cost = demandAccess(Addr, /*IsLoad=*/true, &S);
  Stats.CyclesStalledOnLoads += Cost;
  S.StallCycles += Cost;
}

void MemorySystem::load(uint64_t Addr, exec::SiteId Site) {
  loadBody(Addr, Site);
}

void MemorySystem::store(uint64_t Addr) {
  ++Stats.Stores;
  demandAccess(Addr, /*IsLoad=*/false, nullptr);
}

void MemorySystem::consume(const MemoryEvent *First, const MemoryEvent *Last,
                           unsigned Owner) {
  for (const MemoryEvent *E = First; E != Last; ++E) {
    tick(E->Ticks);
    switch (E->K) {
    case MemoryEvent::Tick:
      break;
    case MemoryEvent::Load:
      loadBody(E->Addr, E->Site);
      break;
    case MemoryEvent::Store:
      ++Stats.Stores;
      demandAccess(E->Addr, /*IsLoad=*/false, nullptr);
      break;
    case MemoryEvent::Prefetch:
      if (E->Owner == 0 || E->Owner == Owner)
        prefetch(E->Addr, E->Site);
      break;
    case MemoryEvent::GuardedLoad:
      if (E->Owner == 0 || E->Owner == Owner)
        guardedLoad(E->Addr, E->Site);
      break;
    case MemoryEvent::GuardedLoadFault:
      if (E->Owner == 0 || E->Owner == Owner)
        guardedLoadFault(E->Site);
      break;
    }
  }
}

uint64_t MemorySystem::swFillReadyAt(uint64_t Addr) const {
  // The fill latency depends on where the line currently lives: a line
  // resident in a deeper level moves up in that level's hit time(s), not
  // a full memory round trip.
  uint64_t Penalty = 0;
  const unsigned NumLevels = numCacheLevels();
  for (unsigned Lvl = 1; Lvl != NumLevels; ++Lvl) {
    Penalty += Cfg.Levels[Lvl].HitCycles;
    if (CacheLevels[Lvl].contains(Addr))
      return Penalty;
  }
  return Cfg.PrefetchFillLatency;
}

void MemorySystem::prefetch(uint64_t Addr, exec::SiteId Site) {
  ++Stats.SwPrefetchesIssued;
  if (SwHealth)
    ++siteFor(Site).SwIssued;
  Cycles += Cfg.PrefetchIssueCost;
  Acct.PrefetchIssue += Cfg.PrefetchIssueCost;

  // "The processor cancels the execution of the instruction when a data
  //  translation lookaside buffer miss will occur." (Section 3.3)
  if (!Dtlb.contains(Addr)) {
    ++Stats.SwPrefetchesCancelled;
    return;
  }

  uint64_t ReadyAt = Cycles + swFillReadyAt(Addr);
  // Deepest level first, down to the configured fill level. Under health
  // tracking the shallowest fill carries the tag (one tag per issue).
  for (unsigned Lvl = numCacheLevels(); Lvl-- > Cfg.SwFillLevel;)
    CacheLevels[Lvl].prefetchFill(Addr, ReadyAt,
                                  SwHealth && Lvl == Cfg.SwFillLevel
                                      ? PfTag::Sw
                                      : PfTag::None,
                                  Site);
}

void MemorySystem::guardedLoad(uint64_t Addr, exec::SiteId Site) {
  ++Stats.GuardedLoads;
  if (SwHealth)
    ++siteFor(Site).SwIssued;
  Cycles += Cfg.GuardedLoadCost;
  Acct.PrefetchIssue += Cfg.GuardedLoadCost;

  // A real load: walks the page table if needed (priming the DTLB — on a
  // walked-TLB machine the walk's page-table accesses go through the
  // caches, warming them for later walks) and brings the line into every
  // level. The fill completes after the residency-dependent latency;
  // only the issue cost stalls the pipeline (no computation consumes the
  // loaded value on the critical path), so the priming walk charges no
  // cycles either.
  if (Cfg.Walk == TlbWalk::Walked && !Dtlb.contains(Addr)) {
    pageWalk(Addr);
    ++Stats.PageWalks;
  }
  Dtlb.fill(Addr);
  if (CacheLevels[0].contains(Addr))
    return;
  uint64_t ReadyAt = Cycles + swFillReadyAt(Addr);
  // The L1 fill carries the tag under health tracking.
  for (unsigned Lvl = numCacheLevels(); Lvl-- > 0;)
    CacheLevels[Lvl].prefetchFill(Addr, ReadyAt,
                                  SwHealth && Lvl == 0 ? PfTag::Sw
                                                       : PfTag::None,
                                  Site);
}

void MemorySystem::guardedLoadFault(exec::SiteId Site) {
  ++Stats.GuardedLoadFaults;
  // A faulted guard is an issue that can never become useful: it drags
  // the site's accuracy down, which is exactly what the governor should
  // see for a plan speculating on stale pointers.
  if (SwHealth)
    ++siteFor(Site).SwIssued;
  Cycles += Cfg.GuardFaultCost;
  Acct.GuardFault += Cfg.GuardFaultCost;
}
