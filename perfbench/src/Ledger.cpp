//===- perfbench/Ledger.cpp -----------------------------------------------===//

#include "Ledger.h"

#include "harness/JsonWriter.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <sys/resource.h>

namespace perfbench {

namespace {

double toSeconds(const timeval &T) {
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_usec) * 1e-6;
}

/// Epoch of the Chrome trace: the first clock read of the process.
const double TraceEpochS = nowS();

/// Keeps the calibration kernel's result alive.
volatile uint32_t KernelSink;

/// Small dense id of the calling thread (Chrome-trace tid).
unsigned threadTrackId() {
  static std::atomic<unsigned> Next{0};
  thread_local unsigned Id = Next++;
  return Id;
}

} // namespace

double nowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double processCpuS() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return toSeconds(U.ru_utime) + toSeconds(U.ru_stime);
}

int64_t threadMinorFaults() {
  rusage U{};
  getrusage(RUSAGE_THREAD, &U);
  return U.ru_minflt;
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

double Ledger::get(const std::string &Name) const {
  auto It = Sum.find(Name);
  return It == Sum.end() ? 0.0 : It->second;
}

void Ledger::merge(Ledger &&Other) {
  for (const auto &[K, V] : Other.Sum)
    Sum[K] += V;
  for (auto &[K, V] : Other.Calls) {
    std::vector<double> &Dst = Calls[K];
    Dst.insert(Dst.end(), V.begin(), V.end());
  }
  Spans.insert(Spans.end(), std::make_move_iterator(Other.Spans.begin()),
               std::make_move_iterator(Other.Spans.end()));
}

void Ledger::writeChromeTrace(std::ostream &OS) const {
  spf::harness::JsonWriter J(OS);
  J.beginObject();
  J.key("displayTimeUnit").value("ms");
  J.key("traceEvents").beginArray();
  for (const SpanEvent &S : Spans) {
    J.beginObject();
    J.key("name").value(S.Name);
    J.key("cat").value(S.Cat);
    J.key("ph").value("X");
    J.key("ts").value(S.StartUs);
    J.key("dur").value(S.DurUs);
    J.key("pid").value(uint64_t(1));
    J.key("tid").value(static_cast<uint64_t>(S.Tid));
    if (!S.Note.empty()) {
      J.key("args").beginObject();
      J.key("what").value(S.Note);
      J.endObject();
    }
    J.endObject();
  }
  J.endArray();
  J.endObject();
  OS << '\n';
}

LayerCall::LayerCall(Ledger *L, const char *Layer, const char *Call,
                     std::string Note)
    : L(L), Layer(Layer), Call(Call), Note(std::move(Note)), Open(L) {
  if (!L)
    return;
  Faults0 = threadMinorFaults();
  Start = nowS();
}

double LayerCall::end() {
  if (!Open)
    return Seconds;
  Open = false;
  double End = nowS();
  Faults = threadMinorFaults() - Faults0;
  Seconds = End - Start;
  SpanEvent E;
  E.Name = std::string(Layer) + "." + Call;
  E.Cat = Layer;
  E.StartUs = (Start - TraceEpochS) * 1e6;
  E.DurUs = Seconds * 1e6;
  E.Tid = threadTrackId();
  E.Note = std::move(Note);
  L->Spans.push_back(std::move(E));
  return Seconds;
}

void HostSpeed::sample() {
  // Two parts, each timed on a second pass so that what the program left
  // in the caches cannot move them: dependent updates of a 256 KiB table
  // (integer work, L2), and dependent reads across 64 MiB, which stay in
  // the shared last-level cache only as far as the host's other tenants
  // let them, as the program's heaps do.
  static std::vector<uint32_t> Small(1u << 16);
  static std::vector<uint32_t> Large = [] {
    std::vector<uint32_t> V(1u << 24);
    uint32_t X = 0x9e3779b9u;
    for (uint32_t &E : V) {
      X ^= X << 13;
      X ^= X >> 17;
      X ^= X << 5;
      E = X;
    }
    return V;
  }();
  auto Update = [] {
    uint64_t X = 0x9e3779b97f4a7c15ull;
    uint32_t Acc = 0;
    for (unsigned I = 0; I != (1u << 17); ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      uint32_t &Slot = Small[(X ^ Acc) & (Small.size() - 1)];
      Slot += static_cast<uint32_t>(X);
      Acc = Acc * 31 + Slot;
    }
    KernelSink = Acc;
  };
  auto Chase = [] {
    uint32_t Idx = 0;
    for (unsigned I = 0; I != (1u << 14); ++I)
      Idx = (Large[Idx] + I) & (Large.size() - 1);
    KernelSink = Idx;
  };
  double Start = nowS();
  Update();
  double T0 = nowS();
  Update();
  double T1 = nowS();
  uint32_t Sum = 0;
  for (size_t I = 0; I < Large.size(); I += 16) // One read per line.
    Sum += Large[I];
  KernelSink = Sum;
  double T2 = nowS();
  Chase();
  double End = nowS();
  Samples.push_back((T1 - T0) + (End - T2));
  Spent += End - Start;
}

double HostSpeed::factor() const {
  return Samples.empty() ? 1.0 : NominalKernelS / median(Samples);
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

CallSummary summarize(std::vector<double> Samples) {
  CallSummary S;
  S.N = Samples.size();
  if (Samples.empty())
    return S;
  std::sort(Samples.begin(), Samples.end());
  S.P50 = median(Samples);
  S.Tail = S.P50;
  // Nearest-rank percentile; keep the highest that leaves >= 10 samples
  // strictly above it.
  for (double Pct : {90.0, 99.0, 99.9}) {
    size_t Rank = static_cast<size_t>(
        std::ceil(Pct / 100.0 * static_cast<double>(S.N)));
    if (Rank == 0 || S.N - Rank < 10)
      break;
    S.Tail = Samples[Rank - 1];
    S.TailPct = Pct;
  }
  return S;
}

} // namespace perfbench
