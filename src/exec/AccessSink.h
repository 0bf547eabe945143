//===- exec/AccessSink.h - Interpreter -> memory event interface -*- C++ -*-===//
///
/// \file
/// The abstract event interface between execution and timing. The
/// interpreter *produces* a stream of access events — compute ticks,
/// demand loads (attributed to their IR load site), stores, software
/// prefetches, and guarded loads — and a sink *consumes* them. The
/// canonical consumer is sim::MemorySystem (the machine's timing model);
/// sim::CountingSink counts events for interpreter-only passes.
///
/// The contract that makes execution sharing exact: the interpreter
/// never reads anything back from the sink — the event stream is
/// write-only and is a function of the program alone. So one execution
/// can feed several sinks at once, and a sink may consume its events
/// later, in batches (workloads::runSharedExecution records the stream
/// in a sim::EventBuffer that delivers the demand events to one
/// MemorySystem per machine and prefetch-code owner, and each owner's
/// prefetch events to its own), and every sink sees exactly the stream a
/// solo run would have given it, up to how its tick runs are split.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_EXEC_ACCESSSINK_H
#define SPF_EXEC_ACCESSSINK_H

#include <cstdint>

namespace spf {
namespace exec {

/// Dense id of one static load instruction (a "load site"), assigned by
/// the interpreter in first-execution order. Per-site attribution lets a
/// sink answer "which loads miss" (the paper's Table 1 view) without the
/// sink knowing anything about IR.
using SiteId = uint32_t;

/// Consumer of the interpreter's memory-event stream.
class AccessSink {
public:
  virtual ~AccessSink() = default;

  /// \p N non-memory instructions elapsed. Additive: tick(a); tick(b)
  /// must be indistinguishable from tick(a + b) — the interpreter relies
  /// on this to coalesce tick runs.
  virtual void tick(uint64_t N) = 0;

  /// Demand load at \p Addr, issued by load site \p Site.
  virtual void load(uint64_t Addr, SiteId Site) = 0;

  /// Demand store at \p Addr.
  virtual void store(uint64_t Addr) = 0;

  // Prefetch events carry the IR load site whose plan issued them (the
  // governor's per-site health evidence).

  /// Software prefetch instruction targeting \p Addr.
  virtual void prefetch(uint64_t Addr, SiteId Site) = 0;

  /// Guarded load whose software exception check passed: a real access
  /// at \p Addr that primes the DTLB and fills the caches.
  virtual void guardedLoad(uint64_t Addr, SiteId Site) = 0;

  /// Guarded load whose check failed: recovery-path cost only.
  virtual void guardedLoadFault(SiteId Site) = 0;
};

} // namespace exec
} // namespace spf

#endif // SPF_EXEC_ACCESSSINK_H
