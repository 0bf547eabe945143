//===- bench/micro_components.cpp - Component microbenchmarks -------------===//
///
/// google-benchmark microbenches for the substrate components: cache and
/// TLB access throughput, interpreter dispatch rate, object-inspection
/// cost (the "ultra-lightweight" claim: inspecting a method is orders of
/// magnitude cheaper than running it), and the full prefetch pass.
///
//===----------------------------------------------------------------------===//

#include "core/PrefetchPass.h"
#include "exec/Interpreter.h"
#include "sim/EventBuffer.h"
#include "support/SplitMix64.h"
#include "workloads/KernelBuilder.h"
#include "workloads/Runner.h"

#include <benchmark/benchmark.h>

#include <chrono>

using namespace spf;

namespace {

void BM_CacheAccess(benchmark::State &State) {
  sim::Cache C(sim::CacheParams{256 * 1024, 64, 8});
  uint64_t Addr = 0;
  uint64_t Now = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(C.access(Addr, Now++));
    Addr += 72; // Object-pitch stream.
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_CacheAccess);

void BM_TlbAccess(benchmark::State &State) {
  sim::Tlb T(64, 4096);
  uint64_t Addr = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(T.access(Addr));
    Addr += 296;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_TlbAccess);

/// The DTLB miss path on the Athlon's 256-entry TLB: cycling over twice
/// as many pages as it holds, every access misses and evicts the LRU page.
void BM_TlbMissPath(benchmark::State &State) {
  constexpr unsigned Entries = 256;
  sim::Tlb T(Entries, 4096);
  uint64_t Page = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(T.access(Page * 4096));
    Page = (Page + 1) % (2 * Entries);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_TlbMissPath);

void BM_MemorySystemLoad(benchmark::State &State) {
  sim::MemorySystem Mem(*sim::MachineConfig::byName("pentium4"));
  uint64_t Addr = 0x100000000ull;
  for (auto _ : State) {
    Mem.load(Addr);
    Addr += 296;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_MemorySystemLoad);

/// MemorySystem::consume over one buffer's worth of a synthetic mixed
/// stream, fed owner 1's prefetch code: ticks on most events, demand
/// loads and stores walking objects with some revisits, and software
/// prefetches and guarded loads of owners 0, 1 and 2. Reports ns/event.
void BM_MemorySystemConsume(benchmark::State &State) {
  sim::MemorySystem Mem(*sim::MachineConfig::byName("pentium4"));
  std::vector<sim::MemoryEvent> Batch(sim::EventBuffer::DefaultCapacity);
  SplitMix64 Rng(42);
  uint64_t Cursor = 0x100000000ull;
  for (sim::MemoryEvent &E : Batch) {
    uint64_t Kind = Rng.nextBelow(100);
    E.Ticks = Rng.nextBelow(4);
    E.Addr = Rng.nextBelow(4) ? Cursor : Cursor - Rng.nextBelow(1 << 16);
    E.Site = static_cast<exec::SiteId>(Rng.nextBelow(16));
    Cursor += 24;
    if (Kind < 60) {
      E.K = sim::MemoryEvent::Load;
    } else if (Kind < 80) {
      E.K = sim::MemoryEvent::Store;
    } else {
      E.K = Kind < 90 ? sim::MemoryEvent::Prefetch
                      : sim::MemoryEvent::GuardedLoad;
      E.Addr += 4 * 296;
      E.Owner = static_cast<uint16_t>(Rng.nextBelow(3));
    }
  }
  for (auto _ : State) {
    Mem.consume(Batch.data(), Batch.data() + Batch.size(), /*Owner=*/1);
    benchmark::DoNotOptimize(Mem.cycles());
  }
  const double Events = static_cast<double>(State.iterations()) *
                        static_cast<double>(Batch.size());
  State.SetItemsProcessed(static_cast<int64_t>(Events));
  State.counters["ns_per_event"] = benchmark::Counter(
      Events, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_MemorySystemConsume);

/// A ready-to-run jess world for the heavier benches. Each bench keeps one
/// in a function-local static: Google Benchmark calls a bench function
/// several times while it sizes the iteration count, and rebuilding the
/// world on every call dominated the binary's run time.
struct JessBench {
  workloads::BuiltWorkload W;
  ir::Method *Find;

  JessBench() {
    workloads::WorkloadConfig Cfg;
    Cfg.Scale = 0.05;
    W = workloads::findWorkload("jess")->Build(Cfg);
    Find = W.Module->findMethod("Node2.findInMemory");
  }
};

void BM_InterpreterDispatch(benchmark::State &State) {
  static JessBench J;
  sim::MemorySystem Mem(*sim::MachineConfig::byName("pentium4"));
  exec::Interpreter Interp(*J.W.Heap, Mem, &J.W.Roots);
  const auto &Args = J.W.CompileUnits[0].Args;
  uint64_t Instr = 0;
  for (auto _ : State) {
    uint64_t Before = Interp.stats().Retired;
    benchmark::DoNotOptimize(Interp.run(J.Find, Args));
    Instr += Interp.stats().Retired - Before;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Instr));
}
BENCHMARK(BM_InterpreterDispatch);

void BM_ObjectInspection(benchmark::State &State) {
  // The paper's headline compile-time claim rests on this being cheap:
  // 20 partially interpreted iterations per loop.
  static JessBench J;
  J.Find->recomputePreds();
  analysis::DominatorTree DT(J.Find);
  analysis::LoopInfo LI(J.Find, DT);
  analysis::Loop *Outer = LI.topLevelLoops()[0];
  core::LoadDependenceGraph G(Outer, LI);
  core::ObjectInspector Insp(*J.W.Heap, LI);
  const auto &Args = J.W.CompileUnits[0].Args;
  for (auto _ : State) {
    core::InspectionResult R = Insp.inspect(J.Find, Args, Outer, G);
    benchmark::DoNotOptimize(R.IterationsObserved);
  }
}
BENCHMARK(BM_ObjectInspection);

void BM_LoadDependenceGraphBuild(benchmark::State &State) {
  static JessBench J;
  J.Find->recomputePreds();
  analysis::DominatorTree DT(J.Find);
  analysis::LoopInfo LI(J.Find, DT);
  analysis::Loop *Outer = LI.topLevelLoops()[0];
  for (auto _ : State) {
    core::LoadDependenceGraph G(Outer, LI);
    benchmark::DoNotOptimize(G.nodes().size());
  }
}
BENCHMARK(BM_LoadDependenceGraphBuild);

void BM_FullPrefetchPass(benchmark::State &State) {
  // Fresh method each run (the pass mutates the IR); manual timing keeps
  // the workload construction out of the measurement. The iteration count
  // is fixed: sized by the manual time alone, the untimed world builds
  // would take thousands of times longer than the timed passes.
  for (auto _ : State) {
    workloads::WorkloadConfig Cfg;
    Cfg.Scale = 0.05;
    workloads::BuiltWorkload W = workloads::findWorkload("jess")->Build(Cfg);
    ir::Method *Find = W.Module->findMethod("Node2.findInMemory");
    core::PrefetchPassOptions Opts = workloads::passOptionsFor(
        *sim::MachineConfig::byName("pentium4"), core::PrefetchMode::InterIntra);
    core::PrefetchPass Pass(*W.Heap, Opts);
    auto Start = std::chrono::steady_clock::now();
    auto R = Pass.run(Find, W.CompileUnits[0].Args);
    auto End = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(R.CodeGen.Prefetches);
    State.SetIterationTime(
        std::chrono::duration<double>(End - Start).count());
  }
}
BENCHMARK(BM_FullPrefetchPass)->UseManualTime()->Iterations(20);

} // namespace

BENCHMARK_MAIN();
