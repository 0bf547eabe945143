//===- obs/Tracer.h - Span-based phase tracing ------------------*- C++ -*-===//
///
/// \file
/// Structured phase timing that serializes to Chrome trace_event JSON
/// ("Trace Event Format"), so a whole sweep — one lane per ThreadPool
/// worker — renders as one timeline in chrome://tracing or Perfetto.
///
/// Model: RAII `Span` objects produce complete ("X") events. Timestamps
/// are CLOCK_MONOTONIC microseconds.
///
/// Cost discipline: when the tracer is inactive a Span constructor is a
/// relaxed load and two dead stores. Recording appends to a mutex-
/// protected buffer — spans are per phase (a method compile, a cell),
/// never per simulated access, so contention is irrelevant; buffering
/// keeps serialization entirely outside the timed regions.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_OBS_TRACER_H
#define SPF_OBS_TRACER_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace spf {
namespace obs {

/// One complete ("X") trace event in Chrome trace_event terms.
struct TraceEvent {
  std::string Name;
  std::string Cat = "spf";
  uint64_t TsUs = 0;  ///< CLOCK_MONOTONIC microseconds.
  uint64_t DurUs = 0; ///< Span duration.
  uint64_t Tid = 0;
  /// Extra "args" key/value pairs (serialized as strings).
  std::vector<std::pair<std::string, std::string>> Args;
};

/// Process-wide event collector. Inactive (and free) until enable().
class Tracer {
public:
  static Tracer &instance();

  void enable();
  void disable();
  bool active() const { return Active.load(std::memory_order_relaxed); }

  /// Appends one finished event (Tid filled in if zero).
  void record(TraceEvent E);

  /// Moves out everything recorded so far.
  std::vector<TraceEvent> drain();

  /// Number of buffered events.
  size_t eventCount() const;

  /// Drains and writes the full Chrome trace_event JSON document
  /// ({"traceEvents":[...]}): one process_name metadata event labeling
  /// this process \p ProcessLabel, then every event under this process's
  /// pid. Returns the number of events written.
  size_t writeChromeTrace(std::ostream &OS, const std::string &ProcessLabel);

  /// CLOCK_MONOTONIC now, in microseconds.
  static uint64_t nowUs();
  /// Stable small integer id for the calling thread.
  static uint64_t currentTid();

private:
  std::atomic<bool> Active{false};
  mutable std::mutex Mu;
  std::vector<TraceEvent> Events;
};

/// RAII span. Captures the start time if the tracer is active at
/// construction; records a complete event at end()/destruction.
class Span {
public:
  explicit Span(const char *Name, const char *Cat = "spf");
  ~Span() { end(); }

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Attaches an "args" entry (no-op on a dead span).
  void note(const char *Key, std::string Val);
  void noteU64(const char *Key, uint64_t Val);

  /// Records the event now instead of at destruction.
  void end();

  bool live() const { return Live; }

private:
  bool Live = false;
  uint64_t StartUs = 0;
  TraceEvent E;
};

} // namespace obs
} // namespace spf

#endif // SPF_OBS_TRACER_H
