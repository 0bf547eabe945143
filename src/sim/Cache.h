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
/// host cache line, and the hit path is inline. Each set keeps its ways
/// in recency order, most recent first: a hit at way w rotates ways
/// 0..w, so the line just used is at way 0 (where a run of accesses to
/// one line finds it on the first compare), and a fill enters at way 0
/// and evicts the last way — the LRU line — with no use stamps to scan.
/// A set's ready-cycles follow its tags in one array, so a probe and its
/// hit bookkeeping touch adjacent host lines; they and the prefetch tags
/// (parallel arrays) move with their line. An invalid way holds
/// InvalidTag, which no reachable line address equals (line bytes >= 2
/// keeps line addresses below 2^63), so validity needs no separate flag
/// and the scan is a single compare per way.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_SIM_CACHE_H
#define SPF_SIM_CACHE_H

#include <cstddef>
#include <cstdint>
#include <new>
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
    size_t Base = setBase(LineAddr);
    unsigned W = find(Base, LineAddr);
    if (W != Params.Assoc) {
      promote(Base, W);
      return hitAt(Base, Now);
    }
    insert(Base, LineAddr, 0); // Demand fill: the caller charges the
    return CacheAccessResult{}; // full penalty; the line is untagged.
  }

  /// Prefetch fill: inserts the line, usable from cycle \p Ready. When a
  /// tag observer is installed, \p Kind / \p Site attach provenance to
  /// the inserted line (a fill that finds the line already present keeps
  /// the line's original tag — redundant issues don't re-arm accounting).
  void prefetchFill(uint64_t Addr, uint64_t Ready, PfTag Kind = PfTag::None,
                    uint32_t Site = 0) {
    uint64_t LineAddr = Addr >> LineShift;
    size_t Base = setBase(LineAddr);
    unsigned W = find(Base, LineAddr);
    if (W != Params.Assoc) {
      promote(Base, W); // Already present: keep warm, keep ReadyAt.
      return;
    }
    insert(Base, LineAddr, Ready);
    if (Obs) {
      TagKinds[Base] = static_cast<uint8_t>(Kind);
      TagSites[Base] = Site;
    }
  }

  /// Installs the prefetch-provenance observer, or re-points it (a copied
  /// cache reports to its new owner); it cannot be removed. Off by
  /// default: the tag arrays stay unallocated and the hot paths pay one
  /// predictable branch. Hits, misses and waits are identical either way
  /// — tags are pure accounting.
  void setTagObserver(PrefetchTagObserver &O) {
    Obs = &O;
    if (TagKinds.empty()) {
      TagKinds.assign(Lines.size() / 2, 0);
      TagSites.assign(Lines.size() / 2, 0);
    }
  }

  const PrefetchTagObserver *tagObserver() const { return Obs; }

  /// True when the line holding \p Addr is present (no LRU update).
  bool contains(uint64_t Addr) const {
    uint64_t LineAddr = Addr >> LineShift;
    size_t Base = setBase(LineAddr);
    return find(Base, LineAddr) != Params.Assoc;
  }

  /// Invalidates all lines.
  void reset();

private:
  static constexpr uint64_t InvalidTag = ~uint64_t(0);

  size_t setBase(uint64_t LineAddr) const {
    return (static_cast<size_t>(LineAddr) & (NumSets - 1)) * Params.Assoc;
  }

  // The set whose first way is slot \p Base: its tags, and its ways'
  // ready-cycles right after them.
  uint64_t *tagsOf(size_t Base) { return &Lines[2 * Base]; }
  const uint64_t *tagsOf(size_t Base) const { return &Lines[2 * Base]; }
  uint64_t *readyOf(size_t Base) { return &Lines[2 * Base + Params.Assoc]; }

  /// Way of \p LineAddr in the set at \p Base, or Assoc when absent.
  unsigned find(size_t Base, uint64_t LineAddr) const {
    const uint64_t *T = tagsOf(Base);
    unsigned W = 0;
    while (W != Params.Assoc && T[W] != LineAddr)
      ++W;
    return W;
  }

  /// Moves way \p W of the set at \p Base to way 0, shifting ways
  /// 0..W-1 one down: every per-line array moves with its line.
  void promote(size_t Base, unsigned W) {
    if (W == 0)
      return;
    rotate(tagsOf(Base), W);
    rotate(readyOf(Base), W);
    if (Obs) {
      rotate(&TagKinds[Base], W);
      rotate(&TagSites[Base], W);
    }
  }

  /// Puts way \p W of \p A first, keeping the order of ways 0..W-1.
  template <typename T> static void rotate(T *A, unsigned W) {
    T Moved = A[W];
    for (unsigned I = W; I != 0; --I)
      A[I] = A[I - 1];
    A[0] = Moved;
  }

  /// Evicts the LRU way of the set at \p Base (resolving its tag, if
  /// any, as evicted-unused) and inserts \p LineAddr, ready at
  /// \p Ready, at way 0 — untagged until the caller tags it.
  void insert(size_t Base, uint64_t LineAddr, uint64_t Ready) {
    const unsigned Last = Params.Assoc - 1;
    if (Obs) {
      dropTag(Base + Last);
      rotate(&TagKinds[Base], Last);
      rotate(&TagSites[Base], Last);
    }
    rotate(tagsOf(Base), Last);
    rotate(readyOf(Base), Last);
    *tagsOf(Base) = LineAddr;
    *readyOf(Base) = Ready;
  }

  /// Hit bookkeeping for the line just promoted to way 0 of the set at
  /// \p Base. A tagged line resolves as used on its first demand hit —
  /// late when part of the fill latency was still exposed.
  CacheAccessResult hitAt(size_t Base, uint64_t Now) {
    CacheAccessResult R;
    R.Hit = true;
    uint64_t &Ready = *readyOf(Base);
    if (Ready > Now) {
      R.WaitCycles = Ready - Now;
      Ready = 0;
    }
    if (Obs && TagKinds[Base]) {
      Obs->prefetchedLineUsed(static_cast<PfTag>(TagKinds[Base]),
                              TagSites[Base], R.WaitCycles != 0);
      TagKinds[Base] = 0;
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

  CacheParams Params;
  unsigned NumSets;
  unsigned LineShift;
  /// Allocates host-cache-line-aligned storage, so a set's tags start a
  /// host line (with its ready-cycles, a 4-way set is exactly one).
  template <typename T> struct LineAligned {
    using value_type = T;
    LineAligned() = default;
    template <typename U> LineAligned(const LineAligned<U> &) {}
    T *allocate(size_t N) {
      return static_cast<T *>(::operator new(N * sizeof(T), Align));
    }
    void deallocate(T *P, size_t) { ::operator delete(P, Align); }
    bool operator==(const LineAligned &) const = default;
    static constexpr std::align_val_t Align{64};
  };
  /// Per set (set-major): Assoc tags, from most to least recently used,
  /// then each way's prefetch-fill ready cycle. InvalidTag marks an empty
  /// way; empty ways always sit at the tail, since fills enter at way 0
  /// and a hit only moves valid ways.
  std::vector<uint64_t, LineAligned<uint64_t>> Lines;

  /// Prefetch-provenance tracking, one entry per way (index = slot, set
  /// Base's ways at Base..Base+Assoc-1), allocated on first
  /// setTagObserver(). TagKinds[I] is a PfTag (0 = untagged).
  PrefetchTagObserver *Obs = nullptr;
  std::vector<uint8_t> TagKinds;
  std::vector<uint32_t> TagSites;
};

} // namespace sim
} // namespace spf

#endif // SPF_SIM_CACHE_H
