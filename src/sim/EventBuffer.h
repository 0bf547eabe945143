//===- sim/EventBuffer.h - Buffered delivery to simulators ------*- C++ -*-===//
///
/// \file
/// The event path of a shared execution: the interpreter writes its
/// AccessSink calls into one buffer, and the buffer hands them, a batch
/// at a time, to every simulator it feeds (MemorySystem::consume). Each
/// simulator then runs one loop over a batch with its own state hot,
/// instead of taking one call per event in turn with the others.
///
/// One buffer serves every owner of a union program's prefetch code:
/// sink(O) records owner O's events, and a simulator fed owner O takes
/// the prefetch-kind events of owners 0 and O. Compute ticks ride on the
/// next event. AccessSink's write-only contract makes delivery time
/// invisible: a simulator that consumes a batch ends in the state the
/// same calls made one by one would leave, whatever the batch size. The
/// buffer delivers when it fills and on drain(), which must run after
/// every interpreter run and before anything reads, ticks or copies a
/// simulator it feeds.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_SIM_EVENTBUFFER_H
#define SPF_SIM_EVENTBUFFER_H

#include "sim/MemorySystem.h"

#include <cassert>
#include <deque>
#include <memory>
#include <vector>

namespace spf {
namespace sim {

/// Records one interpreter's events and delivers them to the simulators
/// of its branch in batches.
class EventBuffer {
public:
  /// Events a buffer holds before it delivers: 48 KB of entries.
  static constexpr size_t DefaultCapacity = 2048;
  static_assert(sizeof(MemoryEvent) == 24, "DefaultCapacity's size note");

  /// A buffer for a program of \p Owners prefetch-code owners (owner 0
  /// included), delivering every \p Capacity events.
  explicit EventBuffer(unsigned Owners, size_t Capacity = DefaultCapacity);
  EventBuffer(const EventBuffer &) = delete;
  EventBuffer &operator=(const EventBuffer &) = delete;

  /// The sink of owner \p Owner 's events; sink(0) takes the demand
  /// events and ticks as well.
  exec::AccessSink &sink(unsigned Owner) { return Sinks[Owner]; }

  /// Delivers later events to \p Mem, fed owner \p Owner 's prefetch
  /// code, after the simulators added before it.
  void addTarget(MemorySystem &Mem, unsigned Owner) {
    assert(Next == Events.get() && "targets changed with events pending");
    Targets.push_back({&Mem, Owner});
  }
  void clearTargets() {
    assert(Next == Events.get() && "targets changed with events pending");
    Targets.clear();
  }

  /// Delivers every recorded event and pending tick to every target.
  void drain();

private:
  /// One owner's AccessSink: records its calls with its owner tag.
  class OwnerSink final : public exec::AccessSink {
  public:
    OwnerSink(EventBuffer &B, uint16_t Owner) : B(B), Owner(Owner) {}
    void tick(uint64_t N) override { B.PendingTicks += N; }
    void load(uint64_t Addr, exec::SiteId Site) override {
      B.push(MemoryEvent::Load, Addr, Site, Owner);
    }
    void store(uint64_t Addr) override {
      B.push(MemoryEvent::Store, Addr, 0, Owner);
    }
    void prefetch(uint64_t Addr, exec::SiteId Site) override {
      B.push(MemoryEvent::Prefetch, Addr, Site, Owner);
    }
    void guardedLoad(uint64_t Addr, exec::SiteId Site) override {
      B.push(MemoryEvent::GuardedLoad, Addr, Site, Owner);
    }
    void guardedLoadFault(exec::SiteId Site) override {
      B.push(MemoryEvent::GuardedLoadFault, 0, Site, Owner);
    }

  private:
    EventBuffer &B;
    const uint16_t Owner;
  };

  struct Target {
    MemorySystem *Mem;
    unsigned Owner;
  };

  void push(MemoryEvent::Kind K, uint64_t Addr, exec::SiteId Site,
            uint16_t Owner) {
    *Next++ = {Addr, PendingTicks, Site, Owner, K};
    PendingTicks = 0;
    if (Next == Full)
      deliver();
  }
  /// Hands the recorded events to every target and empties the buffer.
  void deliver();

  /// The recorded events are [Events, Next). Next never reaches Full
  /// between calls: a push that fills the buffer delivers.
  std::unique_ptr<MemoryEvent[]> Events;
  MemoryEvent *Next;
  MemoryEvent *Full;
  /// Ticks recorded since the last event.
  uint64_t PendingTicks = 0;
  std::deque<OwnerSink> Sinks;
  std::vector<Target> Targets;
};

} // namespace sim
} // namespace spf

#endif // SPF_SIM_EVENTBUFFER_H
