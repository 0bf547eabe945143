//===- perfbench/Ledger.h - Host clocks, rusage and per-layer spans -------===//
///
/// \file
/// Host-side measurement for the benchmark: steady-clock and getrusage
/// readings, and the per-layer ledger a traced run fills. The ledger
/// holds named totals (seconds and counts), per-call samples summarised
/// as median / tail percentile / sample count, and the spans written out
/// as one Chrome trace when the run ends. Spans are recorded from the
/// benchmark's own files around calls into each layer's public API.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LEDGER_H
#define PERFBENCH_LEDGER_H

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock (arbitrary epoch).
double nowS();
/// User + system CPU seconds of the whole process (RUSAGE_SELF).
double processCpuS();
/// Minor page faults of the calling thread so far (RUSAGE_THREAD).
int64_t threadMinorFaults();
/// Peak resident set of the process in MiB (ru_maxrss).
double peakRssMb();

/// Host-speed calibration. A host shared with other tenants drifts in
/// speed by tens of percent within minutes: more than the bounds of the
/// end-to-end times. A short fixed kernel of the benchmark's own is timed
/// again and again between the units of measured work, and factor()
/// turns host seconds into seconds of a nominal host, one on which the
/// kernel takes NominalKernelS. No change to the program moves the kernel.
class HostSpeed {
public:
  static constexpr double NominalKernelS = 4e-3;

  /// Times one kernel run.
  void sample();
  /// Wall seconds spent in sample() so far.
  double spentS() const { return Spent; }
  /// Nominal-host seconds per host second: NominalKernelS over the
  /// median kernel time (1 before any sample).
  double factor() const;

private:
  std::vector<double> Samples;
  double Spent = 0;
};

/// One recorded span: a call into a layer.
struct SpanEvent {
  std::string Name;
  std::string Cat;
  double StartUs = 0;
  double DurUs = 0;
  unsigned Tid = 0;
  std::string Note;
};

/// Per-layer totals, per-call samples and spans of one traced run. Each
/// worker fills its own ledger; merge() folds them together.
struct Ledger {
  std::map<std::string, double> Sum;
  std::map<std::string, std::vector<double>> Calls;
  std::vector<SpanEvent> Spans;

  void add(const std::string &Name, double V) { Sum[Name] += V; }
  void sample(const std::string &Name, double V) { Calls[Name].push_back(V); }
  double get(const std::string &Name) const;
  void merge(Ledger &&Other);

  /// Writes Spans as a Chrome trace (chrome://tracing, Perfetto).
  void writeChromeTrace(std::ostream &OS) const;
};

/// Times one call into a layer. With a null ledger it reads no clock, so
/// the same code path runs untraced. end() records a span named
/// "<layer>.<call>" and returns the seconds; the caller books totals.
class LayerCall {
public:
  LayerCall(Ledger *L, const char *Layer, const char *Call,
            std::string Note = std::string());
  ~LayerCall() { end(); }
  LayerCall(const LayerCall &) = delete;
  LayerCall &operator=(const LayerCall &) = delete;

  /// Ends the span (idempotent); returns its duration in seconds (0 when
  /// untraced).
  double end();
  /// Minor faults the calling thread took during the span.
  int64_t minorFaults() const { return Faults; }

private:
  Ledger *L;
  const char *Layer;
  const char *Call;
  std::string Note;
  double Start = 0;
  int64_t Faults0 = 0;
  int64_t Faults = 0;
  double Seconds = 0;
  bool Open;
};

/// Summary of per-call samples: median, the highest of p90/p99/p99.9
/// with at least ten samples beyond it (p50 when none has), and count.
struct CallSummary {
  double P50 = 0;
  double Tail = 0;
  double TailPct = 50;
  uint64_t N = 0;
};
CallSummary summarize(std::vector<double> Samples);

/// Median of \p V (0 for an empty vector).
double median(std::vector<double> V);

} // namespace perfbench

#endif // PERFBENCH_LEDGER_H
