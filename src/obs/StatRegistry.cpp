//===- obs/StatRegistry.cpp - Named counters/gauges/histograms ------------===//

#include "obs/StatRegistry.h"

#include "harness/JsonWriter.h"
#include "support/Env.h"

#include "obs/Obs.h"

namespace spf {
namespace obs {

namespace {
/// -1: follow the SPF_OBS environment knob; 0/1: test override.
std::atomic<int> RuntimeOverride{-1};
} // namespace

bool enabled() {
#if SPF_OBS
  int Override = RuntimeOverride.load(std::memory_order_relaxed);
  if (Override >= 0)
    return Override != 0;
  static const bool FromEnv = support::envU64("SPF_OBS", 1) != 0;
  return FromEnv;
#else
  return false;
#endif
}

void setEnabled(bool On) {
#if SPF_OBS
  RuntimeOverride.store(On ? 1 : 0, std::memory_order_relaxed);
#else
  (void)On;
#endif
}

uint64_t Histogram::count() const {
  uint64_t N = 0;
  for (const auto &B : Buckets)
    N += B.load(std::memory_order_relaxed);
  return N;
}

void Histogram::reset() {
  for (auto &B : Buckets)
    B.store(0, std::memory_order_relaxed);
  Sum.store(0, std::memory_order_relaxed);
}

Counter &StatRegistry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto &Slot = Counters[Name];
  if (!Slot)
    Slot = std::make_unique<Counter>();
  return *Slot;
}

Gauge &StatRegistry::gauge(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto &Slot = Gauges[Name];
  if (!Slot)
    Slot = std::make_unique<Gauge>();
  return *Slot;
}

Histogram &StatRegistry::histogram(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto &Slot = Histograms[Name];
  if (!Slot)
    Slot = std::make_unique<Histogram>();
  return *Slot;
}

void StatRegistry::writeJson(harness::JsonWriter &J) const {
  std::lock_guard<std::mutex> Lock(Mu);
  J.beginObject();
  J.key("counters").beginObject();
  for (const auto &[Name, C] : Counters)
    J.key(Name).value(C->value());
  J.endObject();
  J.key("gauges").beginObject();
  for (const auto &[Name, G] : Gauges)
    J.key(Name).value(static_cast<int64_t>(G->value()));
  J.endObject();
  J.key("histograms").beginObject();
  for (const auto &[Name, H] : Histograms) {
    J.key(Name).beginObject();
    J.key("count").value(H->count());
    J.key("sum").value(H->sum());
    J.key("buckets").beginObject();
    for (unsigned B = 0; B < Histogram::NumBuckets; ++B)
      if (uint64_t N = H->bucketCount(B))
        J.key(std::to_string(Histogram::bucketBound(B))).value(N);
    J.endObject();
    J.endObject();
  }
  J.endObject();
  J.endObject();
}

void StatRegistry::reset() {
  std::lock_guard<std::mutex> Lock(Mu);
  for (auto &[Name, C] : Counters)
    C->reset();
  for (auto &[Name, G] : Gauges)
    G->reset();
  for (auto &[Name, H] : Histograms)
    H->reset();
}

StatRegistry &StatRegistry::global() {
  // Intentionally leaked, like Tracer::instance(): safe to read from
  // atexit hooks.
  static StatRegistry *R = new StatRegistry;
  return *R;
}

} // namespace obs
} // namespace spf
