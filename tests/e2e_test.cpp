//===- tests/e2e_test.cpp - End-to-end reproduction properties ------------===//
//
// Directional assertions of the paper's evaluation, at a reduced scale
// that still exceeds the cache capacities where the mechanism demands it.
// These lock in the *shape* of Figures 6-10: who wins, where nothing
// happens, and which misses disappear.
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"
#include "workloads/KernelBuilder.h"
#include "workloads/Runner.h"

#include <gtest/gtest.h>

using namespace spf;
using namespace spf::workloads;

namespace {

WorkloadConfig e2eConfig() {
  WorkloadConfig Cfg;
  Cfg.Scale = 0.3; // Working sets still exceed L2 where they should.
  return Cfg;
}

RunResult run(const char *Name, Algorithm A, const sim::MachineConfig &M) {
  const WorkloadSpec *Spec = findWorkload(Name);
  EXPECT_NE(Spec, nullptr);
  RunOptions Opt;
  Opt.Config = e2eConfig();
  Opt.Algo = A;
  Opt.Machine = M;
  return runWorkload(*Spec, Opt);
}

double pct(const RunResult &Base, const RunResult &Opt, const char *Name) {
  return speedupPercent(Base, Opt, findWorkload(Name)->CompiledFraction);
}

TEST(E2ETest, DbGainsBigWithIntraAndNothingWithInter) {
  auto P4 = (*sim::MachineConfig::byName("pentium4"));
  RunResult Base = run("db", Algorithm::Baseline, P4);
  RunResult Inter = run("db", Algorithm::Inter, P4);
  RunResult Intra = run("db", Algorithm::InterIntra, P4);

  EXPECT_NEAR(pct(Base, Inter, "db"), 0.0, 0.5); // Wu's approach: nothing.
  EXPECT_GT(pct(Base, Intra, "db"), 8.0);        // Ours: large.
  // Prefetching must not change the sort.
  EXPECT_EQ(Base.ReturnValue, Intra.ReturnValue);
}

TEST(E2ETest, DbDtlbMissesCollapseOnP4) {
  // Figure 10's headline: guarded loads prime the DTLB.
  auto P4 = (*sim::MachineConfig::byName("pentium4"));
  RunResult Base = run("db", Algorithm::Baseline, P4);
  RunResult Intra = run("db", Algorithm::InterIntra, P4);
  EXPECT_LT(Intra.Mem.DtlbLoadMisses, Base.Mem.DtlbLoadMisses / 5);
  EXPECT_LT(Intra.Mem.L2LoadMisses, Base.Mem.L2LoadMisses);
  EXPECT_GT(Intra.Mem.GuardedLoads, 0u);
}

TEST(E2ETest, EulerGainsEquallyFromBothAlgorithms) {
  for (auto M : {(*sim::MachineConfig::byName("pentium4")),
                 (*sim::MachineConfig::byName("athlonmp"))}) {
    RunResult Base = run("Euler", Algorithm::Baseline, M);
    RunResult Inter = run("Euler", Algorithm::Inter, M);
    RunResult Intra = run("Euler", Algorithm::InterIntra, M);
    double SInter = pct(Base, Inter, "Euler");
    double SIntra = pct(Base, Intra, "Euler");
    EXPECT_GT(SInter, 5.0) << M.Name;
    EXPECT_NEAR(SInter, SIntra, 1.5) << M.Name; // INTER ~= INTER+INTRA.
  }
}

RunResult runFullScale(const char *Name, Algorithm A,
                       const sim::MachineConfig &M) {
  const WorkloadSpec *Spec = findWorkload(Name);
  RunOptions Opt;
  Opt.Algo = A;
  Opt.Machine = M; // Full problem size (Opt.Config defaults to 1.0).
  return runWorkload(*Spec, Opt);
}

TEST(E2ETest, MolDynHelpsOnAthlonNotOnP4) {
  // The L2-resident molecule array: the P4's L2-filling prefetch cannot
  // help; the Athlon's L1-filling prefetch can. MolDyn's mechanism is a
  // capacity relation (fits L2, exceeds the Athlon L1), so this test runs
  // the full problem size.
  RunResult BaseP4 = runFullScale("MolDyn", Algorithm::Baseline,
                                  (*sim::MachineConfig::byName("pentium4")));
  RunResult IntraP4 = runFullScale("MolDyn", Algorithm::InterIntra,
                                   (*sim::MachineConfig::byName("pentium4")));
  RunResult BaseAt = runFullScale("MolDyn", Algorithm::Baseline,
                                  (*sim::MachineConfig::byName("athlonmp")));
  RunResult IntraAt = runFullScale("MolDyn", Algorithm::InterIntra,
                                   (*sim::MachineConfig::byName("athlonmp")));

  double P4Gain = pct(BaseP4, IntraP4, "MolDyn");
  double AtGain = pct(BaseAt, IntraAt, "MolDyn");
  EXPECT_LT(P4Gain, 1.0);       // No improvement (slight overhead).
  EXPECT_GT(AtGain, 1.0);       // Small but real improvement.
  EXPECT_GT(AtGain, P4Gain + 2.0);
}

TEST(E2ETest, NoApplicableFragmentsMeanNoChange) {
  // compress/javac/Search: identical instruction streams, identical
  // cycles (bit-for-bit: nothing was inserted).
  for (const char *Name : {"compress", "javac", "Search"}) {
    RunResult Base =
        run(Name, Algorithm::Baseline, (*sim::MachineConfig::byName("pentium4")));
    RunResult Intra =
        run(Name, Algorithm::InterIntra, (*sim::MachineConfig::byName("pentium4")));
    EXPECT_EQ(Base.CompiledCycles, Intra.CompiledCycles) << Name;
    EXPECT_EQ(Base.Retired, Intra.Retired) << Name;
  }
}

TEST(E2ETest, MpegaudioPaysPureOverhead) {
  RunResult Base =
      run("mpegaudio", Algorithm::Baseline, (*sim::MachineConfig::byName("pentium4")));
  RunResult Intra = run("mpegaudio", Algorithm::InterIntra,
                        (*sim::MachineConfig::byName("pentium4")));
  // Prefetches were inserted...
  EXPECT_GT(Intra.Retired, Base.Retired);
  // ...and could only cost cycles (the filter bank is cache-resident).
  EXPECT_GE(Intra.CompiledCycles, Base.CompiledCycles);
  double Slowdown = pct(Base, Intra, "mpegaudio");
  EXPECT_LT(Slowdown, 0.0);
  EXPECT_GT(Slowdown, -8.0); // But bounded: a slight degradation.
}

TEST(E2ETest, JessImprovesWithIntraOnly) {
  auto P4 = (*sim::MachineConfig::byName("pentium4"));
  RunResult Base = run("jess", Algorithm::Baseline, P4);
  RunResult Inter = run("jess", Algorithm::Inter, P4);
  RunResult Intra = run("jess", Algorithm::InterIntra, P4);
  EXPECT_NEAR(pct(Base, Inter, "jess"), 0.0, 0.5);
  EXPECT_GT(pct(Base, Intra, "jess"), 0.5);
  EXPECT_EQ(Base.ReturnValue, Intra.ReturnValue);
}

TEST(E2ETest, RetiredInstructionIncreaseIsBounded) {
  // Paper: the added prefetch instructions are relatively few (db +9.7%,
  // RayTracer +6.9%, jess +2.2%, the rest < 2%).
  auto P4 = (*sim::MachineConfig::byName("pentium4"));
  for (const char *Name : {"db", "jess", "Euler", "RayTracer"}) {
    RunResult Base = run(Name, Algorithm::Baseline, P4);
    RunResult Intra = run(Name, Algorithm::InterIntra, P4);
    double Increase = (static_cast<double>(Intra.Retired) /
                           static_cast<double>(Base.Retired) -
                       1.0) *
                      100.0;
    EXPECT_GE(Increase, 0.0) << Name;
    EXPECT_LT(Increase, 12.0) << Name;
  }
}

TEST(E2ETest, CompileTimeOverheadIsSmallShare) {
  // Figure 11's property at test scale: the pass is a small share of the
  // whole-program JIT time.
  RunOptions Opt;
  Opt.Config = e2eConfig();
  Opt.Algo = Algorithm::InterIntra;
  for (const char *Name : {"jess", "compress", "javac"}) {
    CompileTime T = measureCompileTime(*findWorkload(Name), Opt);
    ASSERT_GT(T.TotalUs, 0.0) << Name;
    EXPECT_LT(T.PrefetchUs / T.TotalUs, 0.25) << Name;
  }
}

TEST(E2ETest, GcPreservesStridesAndPrefetchEffectiveness) {
  // Paper, Section 4: "Live objects are packed by sliding compaction,
  // which does not change their internal order on the heap. Thus, the
  // garbage collector usually preserves constant strides among the live
  // objects." Build a strided object array in a tight heap, run a loop
  // that allocates garbage every iteration (forcing collections) while
  // reading strided fields: the prefetch pass's stride predictions must
  // survive every compaction, and the result must be unchanged.
  auto BuildAndRun = [&](bool Prefetch, uint64_t &GcRuns,
                         uint64_t &Cycles) -> uint64_t {
    vm::TypeTable Types;
    auto *Rec = Types.addClass("Rec");
    const vm::FieldDesc *FV = Types.addField(Rec, "v", ir::Type::I64);
    for (int I = 0; I < 9; ++I)
      Types.addField(Rec, "p" + std::to_string(I), ir::Type::I64);
    auto *Blob = Types.addClass("Blob");
    for (int I = 0; I < 12; ++I)
      Types.addField(Blob, "b" + std::to_string(I), ir::Type::I64);

    vm::HeapConfig HC;
    HC.HeapBytes = 600 * 1024; // Tight: garbage forces collections.
    vm::Heap Heap(Types, HC);

    const unsigned N = 3000; // 3000 x 96 B = 288 KB live.
    std::vector<vm::Addr> Roots;
    vm::Addr Arr = Heap.allocArray(ir::Type::Ref, N);
    Roots.push_back(Arr);
    for (unsigned I = 0; I != N; ++I) {
      vm::Addr R = Heap.allocObject(*Rec);
      Heap.store(R + FV->Offset, ir::Type::I64, I);
      Heap.store(Heap.elemAddr(Arr, I), ir::Type::Ref, R);
    }

    ir::Module M;
    ir::IRBuilder B(M);
    ir::Method *Fn =
        M.addMethod("churnsum", ir::Type::I64, {ir::Type::Ref,
                                                ir::Type::I32});
    B.setInsertPoint(Fn->addBlock("entry"));
    workloads::LoopNest L(B, "i");
    ir::PhiInst *I = L.civ(B.i32(0));
    ir::PhiInst *Acc = L.addCarried(B.i64(0));
    L.beginBody(B.cmpLt(I, Fn->arg(1)));
    ir::Value *Obj = B.aload(Fn->arg(0), I, ir::Type::Ref);
    ir::Value *V = B.getField(Obj, FV); // 96-byte stride anchor.
    L.setNext(Acc, B.add(Acc, V));
    B.newObject(Blob); // 112 B of garbage per iteration.
    L.close();
    B.ret(Acc);
    EXPECT_TRUE(ir::verifyMethod(Fn));

    if (Prefetch) {
      core::PrefetchPassOptions Opts = passOptionsFor(
          (*sim::MachineConfig::byName("pentium4")), core::PrefetchMode::InterIntra);
      core::PrefetchPass Pass(Heap, Opts);
      core::PrefetchPassResult R = Pass.run(Fn, {Arr, N});
      EXPECT_GT(R.CodeGen.Prefetches, 0u);
    }

    sim::MemorySystem Mem((*sim::MachineConfig::byName("pentium4")));
    exec::Interpreter Interp(Heap, Mem, &Roots);
    uint64_t Result = Interp.run(Fn, {Arr, N});
    GcRuns = Interp.stats().GcRuns;
    Cycles = Mem.cycles();

    // Post-run: surviving records were compacted, possibly several times,
    // but their relative order — and hence the constant pitch — holds.
    vm::Addr ArrNow = Roots[0];
    vm::Addr Prev = Heap.load(Heap.elemAddr(ArrNow, 0), ir::Type::Ref);
    for (unsigned K = 1; K != N; ++K) {
      vm::Addr Cur = Heap.load(Heap.elemAddr(ArrNow, K), ir::Type::Ref);
      EXPECT_EQ(Cur - Prev, 96u) << "stride broken at " << K;
      Prev = Cur;
    }
    return Result;
  };

  uint64_t GcBase = 0, GcOpt = 0, CycBase = 0, CycOpt = 0;
  uint64_t RBase = BuildAndRun(false, GcBase, CycBase);
  uint64_t ROpt = BuildAndRun(true, GcOpt, CycOpt);
  EXPECT_GT(GcBase, 0u) << "heap was not tight enough to force GC";
  EXPECT_GT(GcOpt, 0u);
  EXPECT_EQ(RBase, ROpt);
  EXPECT_LT(CycOpt, CycBase); // Prefetching effective across GCs.
}

} // namespace
