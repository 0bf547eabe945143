//===- obs/Timeline.cpp - Phase-timeline sampling -------------------------===//

#include "obs/Timeline.h"

#include "obs/Tracer.h"

using namespace spf;
using namespace spf::obs;

TimelineSampler::TimelineSampler(sim::MemorySystem &Mem, uint64_t Every,
                                 size_t MaxSamples)
    : Mem(Mem), Every(Every ? Every : 1),
      MaxSamples(MaxSamples < 8 ? 8 : MaxSamples),
      NextSampleAt(this->Every) {}

void TimelineSampler::takeSample(bool IsBoundary) {
  TimelineSample S;
  S.EventIndex = EventCount;
  S.Boundary = IsBoundary;
  S.Cycles = Mem.cycles();
  S.Acct = Mem.acct();
  const sim::MemoryStats &M = Mem.stats();
  S.Loads = M.Loads;
  S.SwIssued = M.SwPrefetchesIssued;
  S.SwUseful = M.SwPrefetchesUseful;
  S.SwLate = M.SwPrefetchesLate;
  S.SwUnused = M.SwPrefetchesUnused;
  Samples.push_back(std::move(S));
  if (!IsBoundary)
    NextSampleAt += Every;
  if (Samples.size() < MaxSamples)
    return;
  // Over budget: halve the resolution. The decimation point depends on
  // the event stream alone, so equal streams keep equal survivors.
  Every *= 2;
  std::vector<TimelineSample> Kept;
  Kept.reserve(Samples.size() / 2 + 8);
  bool Keep = true;
  for (TimelineSample &T : Samples) {
    if (T.Boundary) {
      Kept.push_back(std::move(T));
      continue;
    }
    if (Keep)
      Kept.push_back(std::move(T));
    Keep = !Keep;
  }
  Samples = std::move(Kept);
  NextSampleAt = EventCount + Every;
}

void TimelineSampler::finish() {
  firePre();
  takeSample(/*IsBoundary=*/false);
}

void obs::emitTimelineCounters(const std::vector<TimelineSample> &Timeline,
                               const std::string &Lane) {
  Tracer &T = Tracer::instance();
  if (!T.active() || Timeline.empty())
    return;
  for (const TimelineSample &S : Timeline) {
    TraceEvent E;
    E.Name = Lane;
    E.Cat = "spf-timeline";
    E.Ph = 'C';
    // The counter lane's time axis is *simulated* cycles, not wall
    // clock: the phase structure of the run is what the timeline shows,
    // and it is identical whether or not the cell shared its execution.
    E.TsUs = S.Cycles;
    E.NumArgs.emplace_back("compute", S.Acct.Compute);
    for (size_t L = 0; L != S.Acct.Level.size(); ++L)
      E.NumArgs.emplace_back("l" + std::to_string(L + 1), S.Acct.Level[L]);
    E.NumArgs.emplace_back("wait", S.Acct.Wait);
    E.NumArgs.emplace_back("mem_penalty", S.Acct.MemPenalty);
    E.NumArgs.emplace_back("translation", S.Acct.Translation);
    E.NumArgs.emplace_back("guard_fault", S.Acct.GuardFault);
    E.NumArgs.emplace_back("prefetch_issue", S.Acct.PrefetchIssue);
    T.record(std::move(E));
  }
}
