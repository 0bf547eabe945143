//===- sim/MemorySystem.h - N-level caches + DTLB + clock -------*- C++ -*-===//
///
/// \file
/// Composes the cache hierarchy (any number of levels, from the machine
/// config), the DTLB (flat-penalty or walked misses), and the selected
/// hardware prefetcher behind the event interface the interpreter
/// drives: compute ticks, demand loads/stores, hardware prefetch
/// instructions, and guarded loads. This is the canonical
/// exec::AccessSink implementation — the timing half of the
/// execution/timing split — so one interpreter run can drive several
/// MemorySystems (one per machine) with identical per-machine results.
/// Owns the cycle clock and the counters behind Figures 8-10 (load misses per
/// instruction), plus per-load-site attribution.
///
/// For the builtin two-level flat-TLB configs (Pentium 4, Athlon MP) the
/// generalized cost accounting is bit-identical to the historical fixed
/// L1+L2 model: level 0's HitCycles is the base access cost, each deeper
/// probed level adds its HitCycles, and a full miss adds MemPenalty on
/// top — exactly the old L1HitCycles / L2HitPenalty / MemPenalty charges
/// (pinned by the differential tests and the committed golden report).
///
//===----------------------------------------------------------------------===//

#ifndef SPF_SIM_MEMORYSYSTEM_H
#define SPF_SIM_MEMORYSYSTEM_H

#include "exec/AccessSink.h"
#include "sim/HardwarePrefetcher.h"
#include "sim/MachineConfig.h"
#include "sim/RptPrefetcher.h"
#include "sim/Tlb.h"

#include <vector>

namespace spf {
namespace sim {

/// Event counters for the MPI figures.
struct MemoryStats {
  uint64_t Loads = 0;
  uint64_t Stores = 0;
  uint64_t L1LoadMisses = 0;
  uint64_t L1StoreMisses = 0;
  uint64_t L2LoadMisses = 0;
  uint64_t DtlbLoadMisses = 0;
  uint64_t SwPrefetchesIssued = 0;
  uint64_t SwPrefetchesCancelled = 0; ///< DTLB miss cancelled the prefetch.
  uint64_t GuardedLoads = 0;
  /// Guarded loads whose software exception check failed (garbage
  /// speculative address): recovery-path cost only, no fill.
  uint64_t GuardedLoadFaults = 0;
  /// Cycle breakdown: total cycles charged to demand loads (hit latency
  /// plus every miss/TLB penalty) — the share of the clock that load
  /// stalls account for.
  uint64_t CyclesStalledOnLoads = 0;
  /// Load misses at the last cache level. Equals L2LoadMisses on a
  /// two-level machine; distinct on deeper hierarchies.
  uint64_t LlcLoadMisses = 0;
  /// Modeled page walks (TlbWalk::Walked only): demand walks plus
  /// guarded-load priming walks.
  uint64_t PageWalks = 0;
  /// Cycles charged by demand walks (priming walks are latency-hidden
  /// and charge nothing).
  uint64_t PageWalkCycles = 0;
  /// RPT hardware-prefetch fills issued (mirror of the FSM's counter so
  /// reports see it without the MemorySystem). Zero unless the machine's
  /// effective hardware prefetcher is the RPT.
  uint64_t RptPrefetchesIssued = 0;
  /// Resolution of tagged RPT fills (tags live on last-level lines):
  /// first demand hit fully resident / hit while still in flight /
  /// evicted untouched. Each fill resolves at most once; fills still
  /// resident at end of run stay unresolved.
  uint64_t RptPrefetchesUseful = 0;
  uint64_t RptPrefetchesLate = 0;
  uint64_t RptPrefetchesUnused = 0;
  /// Resolution of tagged software-prefetch fills (plan prefetches and
  /// guarded loads). Counted only while prefetch-health tracking is on —
  /// all zero otherwise, preserving the pre-governor stats bit for bit.
  uint64_t SwPrefetchesUseful = 0;
  uint64_t SwPrefetchesLate = 0;
  uint64_t SwPrefetchesUnused = 0;

  bool operator==(const MemoryStats &) const = default;
};

/// Exact attribution of every cycle the MemorySystem charges. Each
/// charge site adds to exactly one category (plus the clock), so
/// total() == MemorySystem::cycles() is a hard invariant on every
/// machine — pinned by tests/acct_test.cpp. The GC-pause share is not split out
/// here: GC pauses reach the sim as ordinary compute ticks, so the
/// report layer derives gc_pause = pauses * GcPauseTicks * ComputeCycles
/// and subtracts it from Compute (see harness::cycleBreakdown).
struct CycleAccounting {
  /// tick() charges: N * ComputeCycles (includes GC pause ticks).
  uint64_t Compute = 0;
  /// Per-cache-level probe charges (index = level): level 0's base
  /// HitCycles on every demand access plus each deeper probed level's
  /// HitCycles.
  std::vector<uint64_t> Level;
  /// Extra wait on hits to lines still in flight from a prefetch.
  uint64_t Wait = 0;
  /// Full-miss memory round trips on demand accesses.
  uint64_t MemPenalty = 0;
  /// DTLB-miss translation: the flat penalty on Flat machines, the
  /// demand page walk's full cost on Walked machines (equals
  /// MemoryStats::PageWalkCycles there). Guarded-load priming walks are
  /// latency-hidden and charge neither the clock nor any category.
  uint64_t Translation = 0;
  /// Guarded-load guard failures (recovery branch cost).
  uint64_t GuardFault = 0;
  /// Software prefetch issue + guarded-load issue overhead.
  uint64_t PrefetchIssue = 0;

  uint64_t total() const {
    uint64_t T = Compute + Wait + MemPenalty + Translation + GuardFault +
                 PrefetchIssue;
    for (uint64_t L : Level)
      T += L;
    return T;
  }

  bool operator==(const CycleAccounting &) const = default;
};

/// Per-load-site counters (index = exec::SiteId, assigned by the
/// interpreter in first-execution order).
struct SiteStats {
  uint64_t Loads = 0;
  uint64_t L1Misses = 0;
  uint64_t L2Misses = 0;
  uint64_t DtlbMisses = 0;
  /// Total demand-access cycles this site's loads charged (hit latency
  /// plus every miss/TLB penalty) — the per-site share of
  /// MemoryStats::CyclesStalledOnLoads. Not part of siteStatsHash (the
  /// folded-stream hash stays pinned to the original four fields).
  uint64_t StallCycles = 0;
  /// Prefetch-health attribution (opt::Governor's evidence). Sw* counts
  /// the site's plan prefetches / guarded loads and the resolution of
  /// their tagged fills; populated only when health tracking is enabled
  /// (governed runs, whose interpreter attributes each issue to its
  /// anchor load's site) — zero otherwise. Rpt* attributes the hardware
  /// RPT's fills to the load site that trained them.
  uint64_t SwIssued = 0;
  uint64_t SwUseful = 0;
  uint64_t SwLate = 0;
  uint64_t SwUnused = 0;
  uint64_t RptIssued = 0;
  uint64_t RptUseful = 0;
  uint64_t RptLate = 0;
  uint64_t RptUnused = 0;

  bool operator==(const SiteStats &) const = default;
};

/// Zeroes the counters only prefetch-health tracking writes
/// (MemoryStats::SwPrefetches{Useful,Late,Unused} and SiteStats::Sw*):
/// what remains equals a health-off run's statistics on the same events.
void clearPrefetchHealth(MemoryStats &Stats, std::vector<SiteStats> &Sites);

/// One exec::AccessSink call, as sim::EventBuffer records it for
/// MemorySystem::consume. The compute ticks elapsed since the previous
/// event ride on this one (tick() is additive), so a tick run costs no
/// entry of its own except at the end of a stream (Kind Tick).
struct MemoryEvent {
  enum Kind : uint8_t {
    Tick,             ///< Ticks only.
    Load,             ///< load(Addr, Site).
    Store,            ///< store(Addr).
    Prefetch,         ///< prefetch(Addr, Site).
    GuardedLoad,      ///< guardedLoad(Addr, Site).
    GuardedLoadFault, ///< guardedLoadFault(Site).
  };
  uint64_t Addr = 0;
  uint64_t Ticks = 0; ///< tick() total since the previous event.
  exec::SiteId Site = 0;
  /// Owner of the prefetch code that issued a prefetch-kind event
  /// (ir::AddressedInst::owner); 0 for every other event. Owner 0's
  /// events reach every simulator.
  uint16_t Owner = 0;
  Kind K = Tick;
};

/// The simulated memory hierarchy of one machine.
class MemorySystem final : public exec::AccessSink,
                           private PrefetchTagObserver {
public:
  explicit MemorySystem(const MachineConfig &Cfg);

  /// A machine in \p Other's state that continues on its own: caches
  /// observed by \p Other report their tagged fills to the copy.
  MemorySystem(const MemorySystem &Other);
  MemorySystem &operator=(const MemorySystem &) = delete;

  const MachineConfig &config() const { return Cfg; }

  /// Applies the events [\p First, \p Last) in order, as the matching
  /// AccessSink calls would (each event's ticks first), skipping the
  /// ticked-over body of every prefetch-kind event whose owner is neither
  /// 0 nor \p Owner: the stream this simulator would get from a run of
  /// owner \p Owner 's code alone.
  void consume(const MemoryEvent *First, const MemoryEvent *Last,
               unsigned Owner);

  /// Advances the clock for \p N non-memory instructions.
  void tick(uint64_t N) override {
    uint64_t C = N * Cfg.ComputeCycles;
    Cycles += C;
    Acct.Compute += C;
  }

  /// Demand load at \p Addr, attributed to load site \p Site. Advances
  /// the clock by the access cost.
  void load(uint64_t Addr, exec::SiteId Site) override;

  /// Convenience for direct (non-interpreter) drivers: site 0.
  void load(uint64_t Addr) { load(Addr, 0); }

  /// Demand store at \p Addr.
  void store(uint64_t Addr) override;

  /// Hardware prefetch instruction: cancelled when the target page is not
  /// in the DTLB; otherwise fills the configured levels with the line
  /// becoming usable PrefetchFillLatency cycles from now. When
  /// prefetch-health tracking is on, the issue and its fill's fate are
  /// charged to \p Site 's SiteStats; timing and global stats do not
  /// depend on \p Site.
  void prefetch(uint64_t Addr, exec::SiteId Site) override;

  /// Guarded load: a real access that fills the DTLB (TLB priming — on a
  /// walked-TLB machine the walk's page-table accesses go through the
  /// caches, warming them for the demand walk that never happens) and
  /// all cache levels, costing only the issue overhead — its latency is
  /// hidden by out-of-order execution since no computation consumes its
  /// result. \p Site as for prefetch().
  void guardedLoad(uint64_t Addr, exec::SiteId Site) override;

  /// Guarded load whose guard failed: the software exception check
  /// rejected the address, so no memory access happens — only the
  /// recovery branch's cost. Caches and the DTLB are untouched. Under
  /// health tracking it still counts as an issue against \p Site (it can
  /// never become useful).
  void guardedLoadFault(exec::SiteId Site) override;

  /// Turns on per-site prefetch-health accounting: software prefetch /
  /// guarded-load fills are tagged in the cache and their resolution
  /// (useful / late / evicted-unused) charged to the issuing site.
  /// Timing, demand stats, and the pre-existing counters are unchanged;
  /// governor-driven runs enable it. Cannot be turned off again: tags
  /// already in flight would misreport.
  void enablePrefetchHealth();

  uint64_t cycles() const { return Cycles; }
  const MemoryStats &stats() const { return Stats; }
  /// Cycle attribution; acct().total() == cycles() always holds.
  const CycleAccounting &acct() const { return Acct; }
  /// Per-site load/miss attribution; index = SiteId, grown on demand.
  const std::vector<SiteStats> &siteStats() const { return Sites; }

  const Cache &l1() const { return CacheLevels.front(); }
  const Cache &l2() const { return CacheLevels[1]; }
  unsigned numCacheLevels() const {
    return static_cast<unsigned>(CacheLevels.size());
  }
  const Tlb &dtlb() const { return Dtlb; }

private:
  /// Sites[Site], grown on demand.
  SiteStats &siteFor(exec::SiteId Site) {
    if (Site >= Sites.size())
      Sites.resize(Site + 1);
    return Sites[Site];
  }
  // PrefetchTagObserver: resolution of tagged fills.
  void prefetchedLineUsed(PfTag Kind, uint32_t Site, bool Late) override;
  void prefetchedLineEvicted(PfTag Kind, uint32_t Site) override;

  // The bodies behind load() and store(), shared with consume() and
  // inlined into both (defined in MemorySystem.cpp, used only there).
  inline void loadBody(uint64_t Addr, exec::SiteId Site);
  inline uint64_t demandAccess(uint64_t Addr, bool IsLoad, SiteStats *Site);
  /// Cost of translating \p Addr after a DTLB miss: flat penalty or a
  /// modeled radix walk (stats counted here).
  uint64_t translationCost(uint64_t Addr);
  /// The modeled radix walk itself: one page-table access per walk level
  /// through the cache hierarchy, deepening prefix indices so neighbor
  /// pages share upper-level entries. Returns the cost; no stats.
  uint64_t pageWalk(uint64_t Addr);
  /// One cache-hierarchy access of the page-table walker: demand-shaped
  /// cost (level penalties + MemPenalty on a full miss), fills on the
  /// way, but never counts load/store stats or trains the prefetcher.
  uint64_t walkerAccess(uint64_t PteAddr);
  void hwPrefetchOnMiss(uint64_t Addr);
  /// RPT observation of one demand load, before its access is charged.
  void rptObserveLoad(uint32_t Site, uint64_t Addr);
  /// Residency-dependent fill latency of a software prefetch: the
  /// cumulative penalty down to the shallowest level that holds the
  /// line, or the full PrefetchFillLatency when none does.
  uint64_t swFillReadyAt(uint64_t Addr) const;

  MachineConfig Cfg;
  std::vector<Cache> CacheLevels;
  Tlb Dtlb;
  HardwarePrefetcher HwPf;
  RptPrefetcher Rpt;
  bool StreamActive; ///< effectiveHwPrefetch() == Stream, hoisted.
  bool RptActive;    ///< effectiveHwPrefetch() == Rpt, hoisted.
  /// Stream-training threshold: a demand wait above the first deeper
  /// level's hit penalty means the line came from an in-flight prefetch,
  /// i.e. architecturally a miss.
  uint64_t HwTrainThreshold;
  /// log2(PageBytes) for the walker's page-number math (0 = division
  /// fallback for non-power-of-two pages, matching Tlb).
  unsigned PageShift;
  /// Prefetch-health tracking on (enablePrefetchHealth()).
  bool SwHealth = false;
  uint64_t Cycles = 0;
  MemoryStats Stats;
  CycleAccounting Acct;
  std::vector<SiteStats> Sites;
  std::vector<uint64_t> HwTargets; // Scratch for prefetcher output.
};

} // namespace sim
} // namespace spf

#endif // SPF_SIM_MEMORYSYSTEM_H
