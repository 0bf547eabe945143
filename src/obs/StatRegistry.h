//===- obs/StatRegistry.h - Named counters/gauges/histograms ----*- C++ -*-===//
///
/// \file
/// A lock-cheap registry of named statistics. Lookup by name takes the
/// registry mutex once; the returned handle is stable for the process
/// lifetime (reset() zeroes values but never invalidates handles), so
/// hot paths cache a reference and update with a single relaxed atomic
/// operation. Histograms bucket by power of two — cheap (a bit-width
/// instruction per observation) and adequate for the microsecond-scale
/// latency distributions the harness cares about.
///
/// Dump format: a JSON object (writeJson) embedded in the sweep report's
/// "stats" section.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_OBS_STATREGISTRY_H
#define SPF_OBS_STATREGISTRY_H

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace spf {
namespace harness {
class JsonWriter;
} // namespace harness

namespace obs {

/// Monotonic counter. Relaxed atomics: totals are exact, ordering
/// against other stats is not guaranteed (and not needed).
class Counter {
public:
  void inc(uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// Last-write-wins signed gauge.
class Gauge {
public:
  void set(int64_t N) { V.store(N, std::memory_order_relaxed); }
  void add(int64_t N) { V.fetch_add(N, std::memory_order_relaxed); }
  int64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<int64_t> V{0};
};

/// Histogram with power-of-two buckets: bucket B counts observations V
/// with bit_width(V) == B, i.e. V in [2^(B-1), 2^B). Bucket 0 counts
/// V == 0. Upper bounds are therefore 0, 1, 3, 7, ..., 2^B - 1.
class Histogram {
public:
  static constexpr unsigned NumBuckets = 65;

  void observe(uint64_t V) {
    Buckets[bucketOf(V)].fetch_add(1, std::memory_order_relaxed);
    Sum.fetch_add(V, std::memory_order_relaxed);
  }

  /// Bucket index for a value: the number of significant bits.
  static unsigned bucketOf(uint64_t V) {
    unsigned B = 0;
    while (V != 0) {
      ++B;
      V >>= 1;
    }
    return B;
  }

  /// Inclusive upper bound of bucket \p B (2^B - 1).
  static uint64_t bucketBound(unsigned B) {
    return B >= 64 ? ~0ULL : (1ULL << B) - 1;
  }

  uint64_t bucketCount(unsigned B) const {
    return Buckets[B].load(std::memory_order_relaxed);
  }
  uint64_t count() const;
  uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }
  void reset();

private:
  std::array<std::atomic<uint64_t>, NumBuckets> Buckets{};
  std::atomic<uint64_t> Sum{0};
};

/// Name → stat map. Creation locks; updates through the returned
/// references are lock-free. Iteration order is the name order, so the
/// dump is deterministic.
class StatRegistry {
public:
  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  Histogram &histogram(const std::string &Name);

  /// JSON object {"counters":{...},"gauges":{...},"histograms":{...}}.
  /// Histograms dump count/sum plus the non-empty buckets.
  void writeJson(harness::JsonWriter &J) const;

  /// Zeroes every stat. Handles stay valid; nothing is deregistered.
  void reset();

  /// The process-wide registry.
  static StatRegistry &global();

private:
  mutable std::mutex Mu;
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>> Gauges;
  std::map<std::string, std::unique_ptr<Histogram>> Histograms;
};

/// Shorthand for StatRegistry::global().
inline StatRegistry &stats() { return StatRegistry::global(); }

} // namespace obs
} // namespace spf

#endif // SPF_OBS_STATREGISTRY_H
