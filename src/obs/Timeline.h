//===- obs/Timeline.h - Phase-timeline sampling of cycle attribution -*- C++ -*-===//
///
/// \file
/// Time-series sampling of the MemorySystem's cycle attribution and
/// prefetch-health counters: a TimelineSampler interposes on the
/// access-event stream in front of one MemorySystem and snapshots the
/// cumulative CycleAccounting every N *memory* events, plus one flagged
/// sample at every epoch/GC boundary the runner announces.
///
/// The cadence counts memory events only (loads/stores/prefetches/
/// guarded loads), never ticks: the interpreter coalesces tick runs, so
/// tick *call counts* are an artifact of dispatch while memory events
/// are a property of the program. A boundary snapshot is the state
/// *immediately before the first memory event after the boundary*, so
/// it includes the GC pause ticks; periodic snapshots are "immediately
/// after the N-th memory event". Both points depend on the event stream
/// alone, so a sampler behind a fan-out sink (workloads::runWorkloadGroup)
/// produces exactly the timeline of a solo run on the same machine.
///
/// The sampler is pure mechanism and always compiled; policy lives with
/// the callers (bench binaries only turn it on when observability is
/// enabled, keeping SPF_OBS=0 runs byte-identical).
///
//===----------------------------------------------------------------------===//

#ifndef SPF_OBS_TIMELINE_H
#define SPF_OBS_TIMELINE_H

#include "exec/AccessSink.h"
#include "sim/MemorySystem.h"

#include <string>
#include <vector>

namespace spf {
namespace obs {

/// One snapshot of the cumulative simulation state, taken after the
/// EventIndex-th memory event.
struct TimelineSample {
  uint64_t EventIndex = 0; ///< Memory events consumed so far.
  bool Boundary = false;   ///< Epoch/GC boundary sample (vs periodic).
  uint64_t Cycles = 0;     ///< Cumulative simulated cycles.
  sim::CycleAccounting Acct; ///< Cumulative attribution; total()==Cycles.
  uint64_t Loads = 0;
  uint64_t SwIssued = 0; ///< MemoryStats::SwPrefetchesIssued.
  uint64_t SwUseful = 0;
  uint64_t SwLate = 0;
  uint64_t SwUnused = 0;

  bool operator==(const TimelineSample &) const = default;
};

/// AccessSink shim that forwards everything to a MemorySystem and
/// snapshots it on the configured cadence.
class TimelineSampler final : public exec::AccessSink {
public:
  /// Samples every \p Every memory events (must be nonzero). At most
  /// \p MaxSamples are retained: on overflow the cadence doubles and
  /// every other periodic sample is dropped (boundary samples are always
  /// kept) — deterministically, as a function of the event stream.
  explicit TimelineSampler(sim::MemorySystem &Mem, uint64_t Every,
                           size_t MaxSamples = 4096);

  void tick(uint64_t N) override { Mem.tick(N); }
  void load(uint64_t Addr, exec::SiteId Site) override {
    firePre();
    Mem.load(Addr, Site);
    noteMemEvent();
  }
  void store(uint64_t Addr) override {
    firePre();
    Mem.store(Addr);
    noteMemEvent();
  }
  void prefetch(uint64_t Addr) override {
    firePre();
    Mem.prefetch(Addr);
    noteMemEvent();
  }
  void prefetch(uint64_t Addr, exec::SiteId Site) override {
    firePre();
    Mem.prefetch(Addr, Site);
    noteMemEvent();
  }
  void guardedLoad(uint64_t Addr) override {
    firePre();
    Mem.guardedLoad(Addr);
    noteMemEvent();
  }
  void guardedLoad(uint64_t Addr, exec::SiteId Site) override {
    firePre();
    Mem.guardedLoad(Addr, Site);
    noteMemEvent();
  }
  void guardedLoadFault() override {
    firePre();
    Mem.guardedLoadFault();
    noteMemEvent();
  }
  void guardedLoadFault(exec::SiteId Site) override {
    firePre();
    Mem.guardedLoadFault(Site);
    noteMemEvent();
  }

  /// Epoch/GC boundary: arms a flagged sample that fires immediately
  /// before the next memory event (or at finish()).
  void boundary() { ++PendingBoundaries; }

  /// Fires any boundary still due and appends the final sample. Call
  /// once, after the last event; the timeline is never empty afterwards.
  void finish();

  const std::vector<TimelineSample> &samples() const { return Samples; }
  std::vector<TimelineSample> takeSamples() { return std::move(Samples); }

private:
  void noteMemEvent() {
    if (++EventCount == NextSampleAt)
      takeSample(/*IsBoundary=*/false);
  }
  /// Fires every boundary sample armed by boundary(). Called before
  /// each memory event is forwarded.
  void firePre() {
    for (; PendingBoundaries; --PendingBoundaries)
      takeSample(/*IsBoundary=*/true);
  }
  void takeSample(bool IsBoundary);

  sim::MemorySystem &Mem;
  uint64_t Every;
  size_t MaxSamples;
  uint64_t EventCount = 0;
  uint64_t NextSampleAt;
  unsigned PendingBoundaries = 0; ///< Armed by boundary().
  std::vector<TimelineSample> Samples;
};

/// Emits one Chrome-trace 'C' counter event per sample into the process
/// Tracer (no-op when the tracer is inactive): the cycle categories as
/// numeric args on a simulated-cycles time axis, giving a stacked
/// CPI-over-time lane per cell next to the existing phase spans.
void emitTimelineCounters(const std::vector<TimelineSample> &Timeline,
                          const std::string &Lane);

} // namespace obs
} // namespace spf

#endif // SPF_OBS_TIMELINE_H
