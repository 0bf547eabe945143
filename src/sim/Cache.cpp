//===- sim/Cache.cpp ------------------------------------------------------===//

#include "sim/Cache.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>

using namespace spf;
using namespace spf::sim;

Cache::Cache(CacheParams P) : Params(P) {
  assert(P.LineBytes >= 2 && (P.LineBytes & (P.LineBytes - 1)) == 0 &&
         "line size must be a power of two (>= 2, so no line address "
         "collides with the InvalidTag sentinel)");
  LineShift = static_cast<unsigned>(std::countr_zero(P.LineBytes));
  NumSets = static_cast<unsigned>(P.SizeBytes / (P.LineBytes * P.Assoc));
  assert(NumSets && (NumSets & (NumSets - 1)) == 0 &&
         "set count must be a nonzero power of two");
  Lines.assign(2 * static_cast<size_t>(NumSets) * P.Assoc, 0);
  reset();
}

void Cache::reset() {
  for (size_t Base = 0; Base != Lines.size() / 2; Base += Params.Assoc) {
    std::fill_n(tagsOf(Base), Params.Assoc, InvalidTag);
    std::fill_n(readyOf(Base), Params.Assoc, 0);
  }
  // Tags die silently with their lines: an invalidation is not an
  // eviction verdict on the prefetch that filled them.
  std::fill(TagKinds.begin(), TagKinds.end(), 0);
}
