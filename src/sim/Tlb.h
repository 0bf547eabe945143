//===- sim/Tlb.h - Data TLB model -------------------------------*- C++ -*-===//
///
/// \file
/// LRU data TLB. DTLB behaviour is central to the paper's evaluation: a
/// hardware prefetch is cancelled when it would miss the DTLB, and guarded
/// loads are used precisely to fill DTLB entries in advance ("TLB priming",
/// Section 3.3); Figure 10 reports DTLB load MPIs.
///
/// The TLB sits on the hottest per-event path of the simulation (every
/// demand access translates), so the structure is built for lookups:
/// recency is a monotonic use-clock stamp per entry (stamps are unique
/// and monotonic, so min-stamp eviction is exactly list-LRU order), a
/// one-entry MRU filter short-circuits same-page runs, and the page
/// table itself is a fixed-capacity open-addressed hash table in two
/// flat arrays — one multiply-shift hash plus a short linear probe per
/// lookup, no node allocation, no pointer chase. Deletion (eviction)
/// tombstones the slot; the table is rebuilt in place when tombstones
/// would stretch probe chains. All of it is bookkeeping layout only:
/// hit/miss decisions and eviction order are bit-identical to the
/// classic linked-list LRU.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_SIM_TLB_H
#define SPF_SIM_TLB_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace spf {
namespace sim {

/// Fully-associative LRU TLB with O(1) lookup.
class Tlb {
public:
  Tlb(unsigned Entries, unsigned PageBytes);

  unsigned pageBytes() const { return PageBytes; }

  /// Demand translation: returns true on hit. On a miss the entry is
  /// filled (the page walk happened); the caller charges the penalty.
  bool access(uint64_t Addr) {
    uint64_t Page = pageOf(Addr);
    ++DemandAccesses;
    if (Page == MruPage) {
      Stamps[MruIdx] = ++UseClock;
      return true;
    }
    return accessSlow(Page);
  }

  /// Probe without filling: the cancellation check of a hardware prefetch.
  /// The MRU entry is always present in the table, so checking it first
  /// is pure fast path.
  bool contains(uint64_t Addr) const {
    uint64_t Page = pageOf(Addr);
    if (Page == MruPage)
      return true;
    return findSlot(Page) != NotFound;
  }

  /// Fills the entry for \p Addr without counting a demand access
  /// (TLB priming by a guarded load).
  void fill(uint64_t Addr);

  void reset();

  uint64_t demandAccesses() const { return DemandAccesses; }
  uint64_t demandMisses() const { return DemandMisses; }

private:
  bool accessSlow(uint64_t Page);
  void insertPage(uint64_t Page);
  void evictLru();
  void rebuild();

  /// Page number of \p Addr: a shift for power-of-two page sizes (the
  /// universal case; PageShift 0 falls back to division). Page sizes of
  /// at least 2 keep every page number below the sentinels.
  uint64_t pageOf(uint64_t Addr) const {
    return PageShift ? Addr >> PageShift : Addr / PageBytes;
  }

  static constexpr size_t NotFound = ~size_t(0);
  /// Slot sentinels — the two top page numbers, unreachable for any
  /// page size >= 2. A tombstone keeps probe chains intact across the
  /// eviction that deleted it.
  static constexpr uint64_t EmptyPage = ~uint64_t(0);
  static constexpr uint64_t TombPage = ~uint64_t(0) - 1;
  /// MRU-invalid marker (doubles as "no page": equals EmptyPage).
  static constexpr uint64_t NoPage = ~uint64_t(0);

  size_t hashIdx(uint64_t Page) const {
    return static_cast<size_t>((Page * 0x9E3779B97F4A7C15ull) >> HashShift);
  }

  /// Index of \p Page's live slot, or NotFound. Pure.
  size_t findSlot(uint64_t Page) const {
    size_t I = hashIdx(Page);
    for (;;) {
      uint64_t P = Pages[I];
      if (P == Page)
        return I;
      if (P == EmptyPage)
        return NotFound;
      I = (I + 1) & Mask;
    }
  }

  unsigned Entries;
  unsigned PageBytes;
  unsigned PageShift;
  unsigned HashShift;
  size_t Mask;              ///< Capacity - 1 (capacity is a power of two).
  std::vector<uint64_t> Pages;  ///< Page per slot, or a sentinel.
  std::vector<uint64_t> Stamps; ///< Last-use stamp, parallel to Pages.
  size_t LiveCount = 0;         ///< Resident entries (<= Entries).
  size_t UsedCount = 0;         ///< Live + tombstoned slots.
  uint64_t UseClock = 0;
  /// One-entry MRU filter: NoPage = invalid; otherwise Pages[MruIdx] ==
  /// MruPage (eviction of the MRU entry and reset() invalidate it;
  /// rebuild() re-points MruIdx).
  uint64_t MruPage = NoPage;
  size_t MruIdx = 0;

  uint64_t DemandAccesses = 0;
  uint64_t DemandMisses = 0;
};

} // namespace sim
} // namespace spf

#endif // SPF_SIM_TLB_H
