//===- sim/Tlb.cpp --------------------------------------------------------===//

#include "sim/Tlb.h"

#include <algorithm>
#include <cassert>

using namespace spf;
using namespace spf::sim;

Tlb::Tlb(unsigned Entries, unsigned PageBytes)
    : Entries(Entries), PageBytes(PageBytes),
      PageShift((PageBytes & (PageBytes - 1)) == 0
                    ? static_cast<unsigned>(std::countr_zero(PageBytes))
                    : 0) {
  assert(Entries >= 1 && Entries <= MaxEntries && "TLB size out of range");
  // Capacity 2x the entry count (power of two, >= 8): at most half the
  // slots are ever live, keeping linear probes short.
  uint32_t Cap = std::bit_ceil(Entries * 2u);
  if (Cap < 8)
    Cap = 8;
  Mask = Cap - 1;
  HashShift = 64 - static_cast<unsigned>(std::countr_zero(Cap));
  Pages.assign(Cap, EmptyPage);
  Links.resize(Cap);
  Order.reserve(Entries);
}

void Tlb::unlink(uint32_t I) {
  Link L = Links[I];
  (L.Prev != Nil ? Links[L.Prev].Next : Head) = L.Next;
  (L.Next != Nil ? Links[L.Next].Prev : Tail) = L.Prev;
}

void Tlb::pushFront(uint32_t I) {
  Links[I] = {Nil, Head};
  (Head != Nil ? Links[Head].Prev : Tail) = I;
  Head = I;
}

void Tlb::touch(uint32_t I) {
  // Callers reach here only for a page other than MruPage, so I is never
  // the head already, and the old head becomes the second entry.
  unlink(I);
  pushFront(I);
  Mru2Page = MruPage;
  MruPage = Pages[I];
}

void Tlb::syncFilter() {
  MruPage = Mru2Page = NoPage;
  if (Head == Nil)
    return;
  MruPage = Pages[Head];
  if (Links[Head].Next != Nil)
    Mru2Page = Pages[Links[Head].Next];
}

bool Tlb::accessSlow(uint64_t Page) {
  uint32_t I = findSlot(Page);
  if (I != NotFound) {
    touch(I);
    return true;
  }
  insertPage(Page);
  return false;
}

void Tlb::evictLru() {
  uint32_t Victim = Tail;
  unlink(Victim);
  Pages[Victim] = TombPage;
  --LiveCount;
}

void Tlb::place(uint64_t Page) {
  // Page is absent, so the first tombstone (or the terminal empty slot)
  // on its probe chain is a valid home.
  uint32_t I = hashIdx(Page);
  for (;;) {
    uint64_t P = Pages[I];
    if (P == TombPage)
      break;
    if (P == EmptyPage) {
      ++UsedCount;
      break;
    }
    I = (I + 1) & Mask;
  }
  Pages[I] = Page;
  pushFront(I);
  ++LiveCount;
}

void Tlb::rebuild() {
  // Drop tombstones. Re-inserting the live pages from LRU to MRU, each
  // at the head, reproduces the recency list exactly.
  Order.clear();
  for (uint32_t I = Tail; I != Nil; I = Links[I].Prev)
    Order.push_back(Pages[I]);
  std::fill(Pages.begin(), Pages.end(), EmptyPage);
  Head = Tail = Nil;
  LiveCount = UsedCount = 0;
  for (uint64_t Page : Order)
    place(Page);
}

void Tlb::insertPage(uint64_t Page) {
  if (LiveCount >= Entries)
    evictLru();
  if ((UsedCount + 1) * 4 > (Mask + 1) * 3)
    rebuild();
  place(Page);
  syncFilter();
}

void Tlb::fill(uint64_t Addr) {
  uint64_t Page = pageOf(Addr);
  if (Page == MruPage)
    return;
  if (Page == Mru2Page) {
    swapTopTwo();
    return;
  }
  uint32_t I = findSlot(Page);
  if (I != NotFound)
    touch(I);
  else
    insertPage(Page);
}

void Tlb::reset() {
  std::fill(Pages.begin(), Pages.end(), EmptyPage);
  Head = Tail = Nil;
  LiveCount = UsedCount = 0;
  MruPage = Mru2Page = NoPage;
}
