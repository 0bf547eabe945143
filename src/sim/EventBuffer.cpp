//===- sim/EventBuffer.cpp ------------------------------------------------===//

#include "sim/EventBuffer.h"

#include <limits>

using namespace spf;
using namespace spf::sim;

EventBuffer::EventBuffer(unsigned Owners, size_t Capacity)
    : Events(new MemoryEvent[Capacity]), Next(Events.get()),
      Full(Events.get() + Capacity) {
  assert(Capacity >= 1 && "a buffer holds at least one event");
  assert(Owners >= 1 && Owners - 1 <= std::numeric_limits<uint16_t>::max() &&
         "owner ids must fit MemoryEvent::Owner");
  for (unsigned O = 0; O != Owners; ++O)
    Sinks.emplace_back(*this, static_cast<uint16_t>(O));
}

void EventBuffer::deliver() {
  for (const Target &T : Targets)
    T.Mem->consume(Events.get(), Next, T.Owner);
  Next = Events.get();
}

void EventBuffer::drain() {
  // The buffer is never full here, so trailing ticks fit one more entry.
  if (PendingTicks) {
    *Next++ = {0, PendingTicks, 0, 0, MemoryEvent::Tick};
    PendingTicks = 0;
  }
  if (Next != Events.get())
    deliver();
}
