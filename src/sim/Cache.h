//===- sim/Cache.h - Set-associative cache model ----------------*- C++ -*-===//
///
/// \file
/// Trace-driven set-associative LRU cache. Lines filled by a prefetch
/// carry a ready-cycle: a demand access arriving before the fill completes
/// pays only the remaining latency (partial hiding, as on the paper's
/// out-of-order machines where a prefetch one iteration ahead may not
/// fully cover memory latency).
///
/// The cache sits on the hottest per-event path of the simulation (one
/// to two probes per demand access), so the lookup is structured for that:
/// line addresses are shifts (line size is a power of two), tags live in
/// a packed per-set array an associativity's worth of which fits in one
/// host cache line, and the hit path is inline. Recency and ready-cycles
/// are parallel arrays touched only on the slot that hits. An invalid
/// slot holds InvalidTag, which no reachable line address equals (line
/// bytes >= 2 keeps line addresses below 2^63), so validity needs no
/// separate flag and the scan is a single compare per way.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_SIM_CACHE_H
#define SPF_SIM_CACHE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace spf {
namespace sim {

/// Geometry of one cache level.
struct CacheParams {
  uint64_t SizeBytes = 8 * 1024;
  unsigned LineBytes = 64;
  unsigned Assoc = 4;

  bool operator==(const CacheParams &) const = default;
};

/// Result of a demand access.
struct CacheAccessResult {
  bool Hit = false;
  /// Extra cycles to wait for an in-flight prefetched line (0 when the
  /// line is fully resident or absent).
  uint64_t WaitCycles = 0;
};

/// Provenance of a prefetch-filled line, for effectiveness accounting.
enum class PfTag : uint8_t {
  None = 0, ///< Demand fill or untracked prefetch.
  Sw = 1,   ///< Software prefetch / guarded load from a prefetch plan.
  Rpt = 2,  ///< Reference-prediction-table hardware prefetch.
};

/// Receives the resolution of tagged prefetch fills: each tracked fill
/// eventually either serves a demand hit (used — possibly late, with
/// part of the fill latency exposed) or is evicted untouched (pure
/// pollution). sim::MemorySystem implements this to build per-site
/// prefetch-health counters; a tag resolves exactly once.
class PrefetchTagObserver {
public:
  virtual ~PrefetchTagObserver() = default;
  virtual void prefetchedLineUsed(PfTag Kind, uint32_t Site, bool Late) = 0;
  virtual void prefetchedLineEvicted(PfTag Kind, uint32_t Site) = 0;
};

/// One level of set-associative LRU cache.
class Cache {
public:
  explicit Cache(CacheParams P);

  /// Demand access at \p Now; fills the line on a miss (ready
  /// immediately, i.e. the pipeline stalls for it — the penalty is charged
  /// by the caller).
  CacheAccessResult access(uint64_t Addr, uint64_t Now) {
    uint64_t LineAddr = Addr >> LineShift;
    ++UseClock;
    // One-line MRU filter: unit strides touch the same line repeatedly,
    // so the previous hit's slot is checked before the set scan. Every
    // bookkeeping step (use stamp, ready-cycle drain) is the same as the
    // scan path — pure shortcut, bit-identical stats.
    if (LineAddr == MruLine) {
      LastUse[MruSlot] = UseClock;
      return hitAt(MruSlot, Now);
    }
    size_t Base = setBase(LineAddr);
    for (unsigned I = 0; I != Params.Assoc; ++I) {
      if (Tags[Base + I] == LineAddr) {
        LastUse[Base + I] = UseClock;
        MruLine = LineAddr;
        MruSlot = Base + I;
        return hitAt(Base + I, Now);
      }
    }
    size_t V = victimFor(Base);
    if (Obs)
      dropTag(V); // Victim may hold an unresolved tag; demand fill is untagged.
    Tags[V] = LineAddr;
    LastUse[V] = UseClock;
    ReadyAt[V] = 0; // Demand fill: the caller charges the full penalty.
    MruLine = LineAddr;
    MruSlot = V;
    return CacheAccessResult{};
  }

  /// Prefetch fill: inserts the line, usable from cycle \p Ready. When a
  /// tag observer is installed, \p Kind / \p Site attach provenance to
  /// the inserted line (a fill that finds the line already present keeps
  /// the line's original tag — redundant issues don't re-arm accounting).
  void prefetchFill(uint64_t Addr, uint64_t Ready, PfTag Kind = PfTag::None,
                    uint32_t Site = 0) {
    uint64_t LineAddr = Addr >> LineShift;
    ++UseClock;
    if (LineAddr == MruLine) {
      LastUse[MruSlot] = UseClock; // Already present: keep warm,
      return;                      // keep ReadyAt.
    }
    size_t Base = setBase(LineAddr);
    for (unsigned I = 0; I != Params.Assoc; ++I) {
      if (Tags[Base + I] == LineAddr) {
        LastUse[Base + I] = UseClock;
        MruLine = LineAddr;
        MruSlot = Base + I;
        return;
      }
    }
    size_t V = victimFor(Base);
    if (Obs) {
      dropTag(V);
      TagKinds[V] = static_cast<uint8_t>(Kind);
      TagSites[V] = Site;
    }
    Tags[V] = LineAddr;
    LastUse[V] = UseClock;
    ReadyAt[V] = Ready;
    MruLine = LineAddr;
    MruSlot = V;
  }

  /// Installs (or clears, with nullptr) the prefetch-provenance observer.
  /// Off by default: the tag arrays stay untouched and the hot paths pay
  /// one predictable branch. Hits, misses and waits are identical either
  /// way — tags are pure accounting.
  void setTagObserver(PrefetchTagObserver *O) {
    Obs = O;
    if (Obs && TagKinds.empty()) {
      TagKinds.assign(Tags.size(), 0);
      TagSites.assign(Tags.size(), 0);
    }
  }

  const PrefetchTagObserver *tagObserver() const { return Obs; }

  /// True when the line holding \p Addr is present (no LRU update).
  bool contains(uint64_t Addr) const {
    uint64_t LineAddr = Addr >> LineShift;
    if (LineAddr == MruLine)
      return true;
    size_t Base = setBase(LineAddr);
    for (unsigned I = 0; I != Params.Assoc; ++I)
      if (Tags[Base + I] == LineAddr)
        return true;
    return false;
  }

  /// Invalidates all lines.
  void reset();

private:
  static constexpr uint64_t InvalidTag = ~uint64_t(0);

  size_t setBase(uint64_t LineAddr) const {
    return (static_cast<size_t>(LineAddr) & (NumSets - 1)) * Params.Assoc;
  }

  /// Hit bookkeeping shared by the MRU and scan paths (LastUse is already
  /// stamped by the caller). A tagged line resolves as used on its first
  /// demand hit — late when part of the fill latency was still exposed.
  CacheAccessResult hitAt(size_t Slot, uint64_t Now) {
    CacheAccessResult R;
    R.Hit = true;
    uint64_t &Ready = ReadyAt[Slot];
    if (Ready > Now) {
      R.WaitCycles = Ready - Now;
      Ready = 0;
    }
    if (Obs && TagKinds[Slot]) {
      Obs->prefetchedLineUsed(static_cast<PfTag>(TagKinds[Slot]),
                              TagSites[Slot], R.WaitCycles != 0);
      TagKinds[Slot] = 0;
    }
    return R;
  }

  /// Resolves slot \p V 's tag (if any) as evicted-unused.
  void dropTag(size_t V) {
    if (TagKinds[V]) {
      Obs->prefetchedLineEvicted(static_cast<PfTag>(TagKinds[V]), TagSites[V]);
      TagKinds[V] = 0;
    }
  }

  /// LRU victim slot in the set at \p Base: the first invalid way, else
  /// the first minimum-LastUse way (exact order of the classic scan).
  size_t victimFor(size_t Base);

  CacheParams Params;
  unsigned NumSets;
  unsigned LineShift;
  std::vector<uint64_t> Tags;    ///< NumSets * Assoc, set-major; InvalidTag
                                 ///< marks an empty way.
  std::vector<uint64_t> LastUse; ///< Use-clock stamp, parallel to Tags.
  std::vector<uint64_t> ReadyAt; ///< Prefetch-fill ready cycle, parallel.
  /// One-line MRU filter. Invariant: while MruLine != InvalidTag,
  /// Tags[MruSlot] == MruLine — every Tags write (the two insert sites)
  /// re-points it, and reset() invalidates it.
  uint64_t MruLine = InvalidTag;
  size_t MruSlot = 0;
  uint64_t UseClock = 0;

  /// Prefetch-provenance tracking; arrays parallel Tags, allocated on
  /// first setTagObserver(). TagKinds[I] is a PfTag (0 = untagged).
  PrefetchTagObserver *Obs = nullptr;
  std::vector<uint8_t> TagKinds;
  std::vector<uint32_t> TagSites;
};

} // namespace sim
} // namespace spf

#endif // SPF_SIM_CACHE_H
