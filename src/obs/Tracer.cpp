//===- obs/Tracer.cpp - Span-based phase tracing --------------------------===//

#include "obs/Tracer.h"

#include "harness/JsonWriter.h"

#include <algorithm>
#include <chrono>
#include <unistd.h>

namespace spf {
namespace obs {

Tracer &Tracer::instance() {
  // Intentionally leaked: the bench atexit flush must be able to drain
  // it after other statics are gone.
  static Tracer *T = new Tracer;
  return *T;
}

void Tracer::enable() { Active.store(true, std::memory_order_relaxed); }

void Tracer::disable() { Active.store(false, std::memory_order_relaxed); }

void Tracer::record(TraceEvent E) {
  if (E.Tid == 0)
    E.Tid = currentTid();
  std::lock_guard<std::mutex> Lock(Mu);
  Events.push_back(std::move(E));
}

std::vector<TraceEvent> Tracer::drain() {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<TraceEvent> Out;
  Out.swap(Events);
  return Out;
}

size_t Tracer::eventCount() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Events.size();
}

uint64_t Tracer::nowUs() {
  // steady_clock is CLOCK_MONOTONIC on Linux.
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t Tracer::currentTid() {
  static std::atomic<uint64_t> NextTid{1};
  thread_local uint64_t Tid = NextTid.fetch_add(1, std::memory_order_relaxed);
  return Tid;
}

static void writeEventJson(harness::JsonWriter &J, const TraceEvent &E,
                           uint64_t Pid) {
  J.beginObject();
  J.key("name").value(E.Name);
  J.key("cat").value(E.Cat);
  J.key("ph").value("X");
  J.key("ts").value(E.TsUs);
  J.key("dur").value(E.DurUs);
  J.key("pid").value(Pid);
  J.key("tid").value(E.Tid);
  if (!E.Args.empty()) {
    J.key("args").beginObject();
    for (const auto &[K, V] : E.Args)
      J.key(K).value(V);
    J.endObject();
  }
  J.endObject();
}

size_t Tracer::writeChromeTrace(std::ostream &OS,
                                const std::string &ProcessLabel) {
  std::vector<TraceEvent> All = drain();
  // Deterministic file order: by time, then tid.
  std::stable_sort(All.begin(), All.end(),
                   [](const TraceEvent &A, const TraceEvent &B) {
                     if (A.TsUs != B.TsUs)
                       return A.TsUs < B.TsUs;
                     return A.Tid < B.Tid;
                   });
  const uint64_t Pid = static_cast<uint64_t>(::getpid());

  harness::JsonWriter J(OS);
  J.beginObject();
  J.key("traceEvents").beginArray();
  J.beginObject();
  J.key("name").value("process_name");
  J.key("ph").value("M");
  J.key("pid").value(Pid);
  J.key("tid").value(uint64_t(0));
  J.key("args").beginObject();
  J.key("name").value(ProcessLabel);
  J.endObject();
  J.endObject();
  for (const auto &E : All)
    writeEventJson(J, E, Pid);
  J.endArray();
  J.key("displayTimeUnit").value("ms");
  J.endObject();
  OS << '\n';
  return All.size();
}

Span::Span(const char *Name, const char *Cat) {
  Tracer &T = Tracer::instance();
  if (!T.active())
    return;
  Live = true;
  StartUs = Tracer::nowUs();
  E.Name = Name;
  E.Cat = Cat;
}

void Span::note(const char *Key, std::string Val) {
  if (Live)
    E.Args.emplace_back(Key, std::move(Val));
}

void Span::noteU64(const char *Key, uint64_t Val) {
  if (Live)
    E.Args.emplace_back(Key, std::to_string(Val));
}

void Span::end() {
  if (!Live)
    return;
  Live = false;
  E.TsUs = StartUs;
  E.DurUs = Tracer::nowUs() - StartUs;
  Tracer::instance().record(std::move(E));
}

} // namespace obs
} // namespace spf
