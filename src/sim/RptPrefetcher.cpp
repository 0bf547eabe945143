//===- sim/RptPrefetcher.cpp ----------------------------------------------===//

#include "sim/RptPrefetcher.h"

using namespace spf;
using namespace spf::sim;

const RptPrefetcher::Entry *RptPrefetcher::entryFor(uint32_t Site) const {
  for (const Entry &E : Entries)
    if (E.Valid && E.Site == Site)
      return &E;
  return nullptr;
}

void RptPrefetcher::observe(uint32_t Site, uint64_t Addr,
                            std::vector<uint64_t> &Out) {
  ++UseClock;

  Entry *E = nullptr;
  for (Entry &Cand : Entries)
    if (Cand.Valid && Cand.Site == Site) {
      E = &Cand;
      break;
    }

  if (!E) {
    // Allocate: first invalid slot, else the LRU victim.
    Entry *Victim = &Entries[0];
    for (Entry &Cand : Entries) {
      if (!Cand.Valid) {
        Victim = &Cand;
        break;
      }
      if (Cand.LastUse < Victim->LastUse)
        Victim = &Cand;
    }
    *Victim = Entry();
    Victim->Valid = true;
    Victim->Site = Site;
    Victim->PrevAddr = Addr;
    Victim->Stride = 0;
    Victim->State = RptState::Init;
    Victim->LastUse = UseClock;
    return;
  }

  E->LastUse = UseClock;
  int64_t NewStride =
      static_cast<int64_t>(Addr) - static_cast<int64_t>(E->PrevAddr);
  bool Correct = NewStride == E->Stride;
  switch (E->State) {
  case RptState::Init:
    if (Correct) {
      E->State = RptState::Steady;
    } else {
      E->Stride = NewStride;
      E->State = RptState::Transient;
    }
    break;
  case RptState::Transient:
    if (Correct) {
      E->State = RptState::Steady;
    } else {
      E->Stride = NewStride;
      E->State = RptState::NoPred;
    }
    break;
  case RptState::Steady:
    // One wrong stride demotes but keeps the old stride: a single
    // irregular access (pointer chase hiccup) should not forget a
    // long-confirmed pattern.
    if (!Correct)
      E->State = RptState::Init;
    break;
  case RptState::NoPred:
    if (Correct)
      E->State = RptState::Transient;
    else
      E->Stride = NewStride;
    break;
  }
  E->PrevAddr = Addr;

  if (E->State != RptState::Steady || E->Stride == 0)
    return;
  uint64_t Page = pageOf(Addr);
  for (unsigned D = 1; D <= Degree; ++D) {
    uint64_t Target =
        static_cast<uint64_t>(static_cast<int64_t>(Addr) + E->Stride * D);
    if (pageOf(Target) != Page)
      break; // Hardware prefetchers never cross a page (no walker).
    Out.push_back(Target);
  }
}
