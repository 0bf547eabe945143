//===- obs/DecisionLog.h - Per-loop compiler decision events ----*- C++ -*-===//
///
/// \file
/// Structured "why" events from the prefetching pipeline: which loads
/// were paired in the load dependence graph, which strides object
/// inspection found (with sample counts and confidence), which pairs
/// the planner pruned, which prefetch kind codegen emitted, and why a
/// loop degraded — keyed by method, loop header, and load site. The
/// events live on a DecisionLog owned by the workload runner, travel in
/// RunResult::Decisions through shared executions, and surface as
/// JSON-lines (--decisions-out) and the human summary printed by
/// `bench/sweep --explain`.
///
/// Passes find the active log through a thread-local DecisionScope, so
/// deep helpers like annotateStrides record events without signature
/// changes. All recording happens at JIT-compile time — never inside the
/// simulated (timed) region — and DecisionScope::current() is null when
/// observability is off, so the disabled cost is one thread-local read.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_OBS_DECISIONLOG_H
#define SPF_OBS_DECISIONLOG_H

#include <cstdint>
#include <string>
#include <vector>

namespace spf {
namespace ir {
class Instruction;
class Value;
} // namespace ir

namespace harness {
class JsonWriter;
} // namespace harness

namespace obs {

/// One structured decision. Method/Loop identify the loop (header block
/// id); Site names the load(s) involved, empty for loop-level verdicts.
struct DecisionEvent {
  std::string Method;
  uint64_t Loop = 0; ///< Loop header BasicBlock id.
  std::string Pass;  ///< "inspect", "ldg", "stride", "plan", "codegen",
                     ///< "pipeline".
  std::string Event; ///< e.g. "inter-pattern", "rejected", "degraded".
  std::string Site;  ///< Load site label ("%v12", "%a->%b"), may be "".
  std::string Detail;   ///< Free-text reason / extra context.
  int64_t Stride = 0;   ///< Stride in bytes, when the event has one.
  uint64_t Samples = 0; ///< Inspection samples behind the decision.
  double Confidence = 0; ///< Dominant-stride fraction in [0,1], or 0.

  bool operator==(const DecisionEvent &) const = default;
};

/// Ordered event collector for one workload run. Single-threaded by
/// construction (one cell = one thread), so no locking.
class DecisionLog {
public:
  /// Sets the method/loop attributed to subsequent record() calls.
  void setContext(std::string Method, uint64_t Loop) {
    CtxMethod = std::move(Method);
    CtxLoop = Loop;
  }

  /// Records one event, filling Method/Loop from the context when the
  /// event does not carry its own.
  void record(DecisionEvent E);

  /// Convenience: builds and records an event in the current context.
  void event(const char *Pass, const char *Event, std::string Site = "",
             std::string Detail = "", int64_t Stride = 0,
             uint64_t Samples = 0, double Confidence = 0);

  const std::vector<DecisionEvent> &events() const { return Events; }
  std::vector<DecisionEvent> take() { return std::move(Events); }

private:
  std::string CtxMethod;
  uint64_t CtxLoop = 0;
  std::vector<DecisionEvent> Events;
};

/// RAII thread-local installation of the log the pipeline records into.
class DecisionScope {
public:
  explicit DecisionScope(DecisionLog &L) : Prev(Current) { Current = &L; }
  ~DecisionScope() { Current = Prev; }

  DecisionScope(const DecisionScope &) = delete;
  DecisionScope &operator=(const DecisionScope &) = delete;

  /// The active log on this thread, or nullptr.
  static DecisionLog *current() { return Current; }

private:
  DecisionLog *Prev;
  // constinit: no TLS init-guard wrapper on every current() call.
  static thread_local constinit DecisionLog *Current;
};

/// Short printable label for a load site: the value's name when it has
/// one, else "opcode@blockname".
std::string siteLabel(const ir::Value *V);

/// JSON serialization for --decisions-out: an object with only the
/// non-default fields, so records stay compact and byte-stable.
void writeDecisionJson(harness::JsonWriter &J, const DecisionEvent &E);

/// One human-readable line for --explain (no trailing newline).
std::string formatDecision(const DecisionEvent &E);

} // namespace obs
} // namespace spf

#endif // SPF_OBS_DECISIONLOG_H
