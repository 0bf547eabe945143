//===- sim/CountingSink.h - Event-count-only access sink --------*- C++ -*-===//
///
/// \file
/// An AccessSink that models nothing: it just counts events. Useful for
/// cheap passes that need only the shape of an access stream — timing
/// the interpreter on its own, or measuring event mix — at a fraction of
/// a MemorySystem's cost.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_SIM_COUNTINGSINK_H
#define SPF_SIM_COUNTINGSINK_H

#include "exec/AccessSink.h"

namespace spf {
namespace sim {

class CountingSink final : public exec::AccessSink {
public:
  uint64_t TickCalls = 0;
  uint64_t TicksTotal = 0; ///< Sum of tick() arguments.
  uint64_t Loads = 0;
  uint64_t Stores = 0;
  uint64_t Prefetches = 0;
  uint64_t GuardedLoads = 0;
  uint64_t GuardedLoadFaults = 0;
  /// One past the largest load site seen (0 when no loads).
  exec::SiteId LoadSites = 0;

  void tick(uint64_t N) override {
    ++TickCalls;
    TicksTotal += N;
  }
  void load(uint64_t, exec::SiteId Site) override {
    ++Loads;
    if (Site >= LoadSites)
      LoadSites = Site + 1;
  }
  void store(uint64_t) override { ++Stores; }
  void prefetch(uint64_t, exec::SiteId) override { ++Prefetches; }
  void guardedLoad(uint64_t, exec::SiteId) override { ++GuardedLoads; }
  void guardedLoadFault(exec::SiteId) override { ++GuardedLoadFaults; }

  /// Memory events + tick calls (how many sink calls were consumed).
  uint64_t totalCalls() const {
    return TickCalls + Loads + Stores + Prefetches + GuardedLoads +
           GuardedLoadFaults;
  }
};

} // namespace sim
} // namespace spf

#endif // SPF_SIM_COUNTINGSINK_H
