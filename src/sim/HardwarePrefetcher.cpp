//===- sim/HardwarePrefetcher.cpp -----------------------------------------===//

#include "sim/HardwarePrefetcher.h"

using namespace spf;
using namespace spf::sim;

void HardwarePrefetcher::onDemandMiss(uint64_t Addr,
                                      std::vector<uint64_t> &Out) {
  uint64_t Line = lineOf(Addr);
  ++UseClock;

  // Confirmed stream: the miss is the line we predicted next.
  for (Stream &S : Streams) {
    if (!S.Valid || S.NextLine != Line)
      continue;
    S.LastUse = UseClock;
    uint64_t Page = pageOf(Addr);
    for (unsigned D = 1; D <= Degree; ++D) {
      uint64_t Target = (Line + D) * LineBytes;
      if (pageOf(Target) != Page)
        break; // Never cross a page boundary.
      Out.push_back(Target);
    }
    S.NextLine = Line + 1;
    return;
  }

  // New potential stream: replace the LRU slot.
  Stream *Victim = &Streams[0];
  for (Stream &S : Streams) {
    if (!S.Valid) {
      Victim = &S;
      break;
    }
    if (S.LastUse < Victim->LastUse)
      Victim = &S;
  }
  Victim->Valid = true;
  Victim->NextLine = Line + 1;
  Victim->LastUse = UseClock;
}
