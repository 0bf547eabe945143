//===- obs/Tracer.h - Span-based phase tracing ------------------*- C++ -*-===//
///
/// \file
/// Structured phase timing that serializes to Chrome trace_event JSON
/// ("Trace Event Format"), so a whole sweep — ThreadPool workers,
/// subprocess cells, retries, journal grafts — renders as one timeline
/// in chrome://tracing or Perfetto.
///
/// Model: RAII `Span` objects produce complete ("X") events; `instant`
/// marks point events (retry, journal-graft, sweep-stop). Timestamps are
/// CLOCK_MONOTONIC microseconds, which on Linux is machine-wide, so
/// events recorded in forked worker processes line up with the
/// supervisor's on the same axis. Workers ship their buffered events
/// back over the result pipe (serializeJson/parseEventsJson — see
/// harness/Supervisor.cpp); the supervisor import()s them with the
/// worker's real pid, and the merged file shows one process lane per
/// worker.
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

#include "obs/Obs.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace spf {
namespace harness {
class JsonWriter;
class JsonValue;
} // namespace harness

namespace obs {

/// One trace event in Chrome trace_event terms.
struct TraceEvent {
  std::string Name;
  std::string Cat = "spf";
  char Ph = 'X';      ///< 'X' complete span, 'i' instant, 'C' counter.
  uint64_t TsUs = 0;  ///< CLOCK_MONOTONIC microseconds.
  uint64_t DurUs = 0; ///< Span duration ('X' only).
  uint64_t Pid = 0;
  uint64_t Tid = 0;
  /// Extra "args" key/value pairs (serialized as strings).
  std::vector<std::pair<std::string, std::string>> Args;
  /// Numeric "args" entries, serialized as JSON numbers — required for
  /// 'C' counter events, whose values chrome://tracing plots as stacked
  /// series. Written after Args in the args object.
  std::vector<std::pair<std::string, uint64_t>> NumArgs;
};

/// Process-wide event collector. Inactive (and free) until enable().
class Tracer {
public:
  static Tracer &instance();

  void enable();
  void disable();
  bool active() const {
#if SPF_OBS
    return Active.load(std::memory_order_relaxed);
#else
    return false;
#endif
  }

  /// Appends one finished event (Pid/Tid filled in if zero).
  void record(TraceEvent E);

  /// Records an instant event at the current time.
  void
  instant(std::string Name,
          std::vector<std::pair<std::string, std::string>> Args = {});

  /// Moves out everything recorded so far (own events + imports).
  std::vector<TraceEvent> drain();

  /// Number of buffered events.
  size_t eventCount() const;

  /// Grafts events recorded by another process (a supervised worker)
  /// into this tracer's buffer, keeping their original pids/tids.
  void import(std::vector<TraceEvent> Events);

  /// Drains and writes the full Chrome trace_event JSON document
  /// ({"traceEvents":[...]}), including process_name metadata for every
  /// pid seen. Returns the number of events written.
  size_t writeChromeTrace(std::ostream &OS, const std::string &ProcessLabel);

  /// CLOCK_MONOTONIC now, in microseconds.
  static uint64_t nowUs();
  /// Stable small integer id for the calling thread.
  static uint64_t currentTid();

  /// Serializes events as a JSON array (the worker→supervisor wire
  /// format; also reused for the trace file's event list).
  static void writeEventsJson(harness::JsonWriter &J,
                              const std::vector<TraceEvent> &Events);
  /// Inverse of writeEventsJson; ignores malformed entries.
  static std::vector<TraceEvent>
  parseEventsJson(const harness::JsonValue &V);

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
