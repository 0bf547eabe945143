//===- sim/Tlb.h - Data TLB model -------------------------------*- C++ -*-===//
///
/// \file
/// LRU data TLB. DTLB behaviour is central to the paper's evaluation: a
/// hardware prefetch is cancelled when it would miss the DTLB, and guarded
/// loads are used precisely to fill DTLB entries in advance ("TLB priming",
/// Section 3.3); Figure 10 reports DTLB load MPIs.
///
/// The TLB sits on the hottest per-event path of the simulation (every
/// demand access translates), so the structure is built for lookups. The
/// page table is a fixed-capacity open-addressed hash table in flat
/// arrays: one multiply-shift hash plus a short linear probe per lookup,
/// no node allocation. Recency is an intrusive doubly-linked list over
/// slot indices (most recent at the head), so a hit relinks one slot and
/// a miss evicts the tail, both O(1). The list head doubles as a
/// one-entry MRU filter that short-circuits same-page runs without
/// touching the list. Eviction tombstones the slot; when tombstones would
/// stretch probe chains the table is rebuilt in place, re-inserting live
/// pages from LRU to MRU so the recency order survives. Hit/miss
/// decisions and eviction order are exactly those of a linked-list LRU.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_SIM_TLB_H
#define SPF_SIM_TLB_H

#include <bit>
#include <cstdint>
#include <vector>

namespace spf {
namespace sim {

/// Fully-associative LRU TLB with O(1) lookup and eviction.
class Tlb {
public:
  /// Largest supported entry count: the 2 x Entries slot indices must
  /// fit the 32-bit recency links.
  static constexpr unsigned MaxEntries = 1u << 20;

  /// \p Entries must be in [1, MaxEntries].
  Tlb(unsigned Entries, unsigned PageBytes);

  /// Demand translation: returns true on hit. On a miss the entry is
  /// filled (the page walk happened); the caller charges the penalty.
  bool access(uint64_t Addr) {
    uint64_t Page = pageOf(Addr);
    if (Page == MruPage)
      return true;
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

  /// Fills the entry for \p Addr outside the demand stream (TLB priming
  /// by a guarded load).
  void fill(uint64_t Addr);

  void reset();

private:
  bool accessSlow(uint64_t Page);
  /// Makes live slot \p I the most recent entry.
  void touch(uint32_t I);
  void insertPage(uint64_t Page);
  /// Stores absent \p Page in the first free slot of its probe chain and
  /// links it at the head.
  void place(uint64_t Page);
  void evictLru();
  void rebuild();
  void unlink(uint32_t I);
  void pushFront(uint32_t I);

  /// Page number of \p Addr: a shift for power-of-two page sizes (the
  /// universal case; PageShift 0 falls back to division). Page sizes of
  /// at least 2 keep every page number below the sentinels.
  uint64_t pageOf(uint64_t Addr) const {
    return PageShift ? Addr >> PageShift : Addr / PageBytes;
  }

  static constexpr uint32_t NotFound = ~uint32_t(0);
  /// End-of-list link.
  static constexpr uint32_t Nil = ~uint32_t(0);
  /// Slot sentinels — the two top page numbers, unreachable for any
  /// page size >= 2. A tombstone keeps probe chains intact across the
  /// eviction that deleted it.
  static constexpr uint64_t EmptyPage = ~uint64_t(0);
  static constexpr uint64_t TombPage = ~uint64_t(0) - 1;
  /// MRU-invalid marker (doubles as "no page": equals EmptyPage).
  static constexpr uint64_t NoPage = ~uint64_t(0);

  uint32_t hashIdx(uint64_t Page) const {
    return static_cast<uint32_t>((Page * 0x9E3779B97F4A7C15ull) >> HashShift);
  }

  /// Index of \p Page's live slot, or NotFound. Pure.
  uint32_t findSlot(uint64_t Page) const {
    uint32_t I = hashIdx(Page);
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
  uint32_t Mask;                ///< Capacity - 1 (a power of two).
  std::vector<uint64_t> Pages;  ///< Page per slot, or a sentinel.
  /// Recency links of live slots, parallel to Pages.
  struct Link {
    uint32_t Prev, Next;
  };
  std::vector<Link> Links;
  uint32_t Head = Nil; ///< Most recently used live slot.
  uint32_t Tail = Nil; ///< Least recently used live slot.
  uint32_t LiveCount = 0; ///< Resident entries (<= Entries).
  uint32_t UsedCount = 0; ///< Live + tombstoned slots.
  /// Scratch for rebuild(): live pages in LRU-to-MRU order.
  std::vector<uint64_t> Order;
  /// One-entry MRU filter: Pages[Head], or NoPage when the TLB is empty.
  uint64_t MruPage = NoPage;
};

} // namespace sim
} // namespace spf

#endif // SPF_SIM_TLB_H
