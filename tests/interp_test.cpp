//===- tests/interp_test.cpp - IR execution engine ------------------------===//

#include "exec/Interpreter.h"
#include "ir/IRBuilder.h"
#include "sim/CountingSink.h"
#include "sim/MemorySystem.h"
#include "ir/Verifier.h"
#include "support/Status.h"
#include "workloads/KernelBuilder.h"

#include <gtest/gtest.h>

using namespace spf;
using namespace spf::ir;

namespace {

enum class EventKind { Tick, Load, Store, Prefetch, GuardedLoad,
                       GuardedLoadFault };

/// One logged event: the address (tick count for Tick) and load site.
struct AccessEvent {
  EventKind Kind;
  uint64_t Value;
  exec::SiteId Site;
};

/// Logs the event stream it forwards to \p Inner.
class LoggingSink final : public exec::AccessSink {
public:
  explicit LoggingSink(exec::AccessSink &Inner) : Inner(Inner) {}

  std::vector<AccessEvent> Log;

  void tick(uint64_t N) override {
    Log.push_back({EventKind::Tick, N, 0});
    Inner.tick(N);
  }
  void load(uint64_t Addr, exec::SiteId Site) override {
    Log.push_back({EventKind::Load, Addr, Site});
    Inner.load(Addr, Site);
  }
  void store(uint64_t Addr) override {
    Log.push_back({EventKind::Store, Addr, 0});
    Inner.store(Addr);
  }
  void prefetch(uint64_t Addr) override {
    Log.push_back({EventKind::Prefetch, Addr, 0});
    Inner.prefetch(Addr);
  }
  void guardedLoad(uint64_t Addr) override {
    Log.push_back({EventKind::GuardedLoad, Addr, 0});
    Inner.guardedLoad(Addr);
  }
  void guardedLoadFault() override {
    Log.push_back({EventKind::GuardedLoadFault, 0, 0});
    Inner.guardedLoadFault();
  }

  /// Sites of the logged loads, in order; clears the log.
  std::vector<exec::SiteId> takeLoadSites() {
    std::vector<exec::SiteId> Sites;
    for (const AccessEvent &E : Log)
      if (E.Kind == EventKind::Load)
        Sites.push_back(E.Site);
    Log.clear();
    return Sites;
  }

private:
  exec::AccessSink &Inner;
};

/// Runs \p Fn and expects a RuntimeTrap whose message contains \p Msg.
template <typename Fn> void expectTrap(Fn &&F, const std::string &Msg) {
  try {
    F();
    ADD_FAILURE() << "no trap; expected \"" << Msg << "\"";
  } catch (const support::RuntimeTrap &T) {
    EXPECT_NE(std::string(T.what()).find(Msg), std::string::npos) << T.what();
  }
}

class InterpTest : public ::testing::Test {
protected:
  InterpTest()
      : Heap(Types, smallHeap()), Mem((*sim::MachineConfig::byName("pentium4"))),
        Interp(Heap, Mem) {}

  static vm::HeapConfig smallHeap() {
    vm::HeapConfig HC;
    HC.HeapBytes = 1 << 20;
    return HC;
  }

  uint64_t run(Method *M, std::vector<uint64_t> Args) {
    EXPECT_TRUE(verifyMethod(M));
    return Interp.run(M, Args);
  }

  vm::TypeTable Types;
  vm::Heap Heap;
  sim::MemorySystem Mem;
  exec::Interpreter Interp;
  Module M;
};

TEST_F(InterpTest, IntegerArithmetic) {
  Method *Fn = M.addMethod("arith", Type::I32, {Type::I32, Type::I32});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  Value *S = B.add(Fn->arg(0), Fn->arg(1));
  Value *D = B.mul(S, B.i32(3));
  Value *R = B.sub(D, B.rem(Fn->arg(0), B.i32(5)));
  B.ret(B.div(R, B.i32(2)));
  // ((7+4)*3 - 7%5) / 2 = (33 - 2) / 2 = 15
  EXPECT_EQ(run(Fn, {7, 4}), 15u);
}

TEST_F(InterpTest, I32WrapsAt32Bits) {
  Method *Fn = M.addMethod("wrap", Type::I32, {Type::I32});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  B.ret(B.add(Fn->arg(0), B.i32(1)));
  uint64_t R = run(Fn, {0x7fffffffull});
  // INT32_MAX + 1 wraps to INT32_MIN, sign-extended in the slot.
  EXPECT_EQ(static_cast<int64_t>(R), -2147483648LL);
}

TEST_F(InterpTest, FloatArithmeticAndConversion) {
  Method *Fn = M.addMethod("fp", Type::I32, {Type::I32});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  Value *F = B.conv(ConvInst::ConvOp::IToF, Fn->arg(0));
  Value *G = B.mul(F, B.f64(2.5));
  B.ret(B.conv(ConvInst::ConvOp::FToI, G));
  EXPECT_EQ(run(Fn, {10}), 25u);
}

TEST_F(InterpTest, LoopWithPhiComputesSum) {
  Method *Fn = M.addMethod("sum", Type::I32, {Type::I32});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  workloads::LoopNest L(B, "i");
  PhiInst *I = L.civ(B.i32(0));
  PhiInst *S = L.addCarried(B.i32(0));
  L.beginBody(B.cmpLt(I, Fn->arg(0)));
  L.setNext(S, B.add(S, I));
  L.close();
  B.ret(S);
  EXPECT_EQ(run(Fn, {10}), 45u); // 0+1+...+9
}

TEST_F(InterpTest, FieldAndArrayRoundTrip) {
  auto *Cls = Types.addClass("Pair");
  const vm::FieldDesc *FA = Types.addField(Cls, "a", Type::I32);
  const vm::FieldDesc *FB = Types.addField(Cls, "b", Type::I64);

  Method *Fn = M.addMethod("rt", Type::I64, {});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  Value *O = B.newObject(Cls);
  B.putField(O, FA, B.i32(-3));
  B.putField(O, FB, B.i64(1000));
  Value *Arr = B.newArray(Type::I64, B.i32(4));
  B.astore(Arr, B.i32(2), B.getField(O, FB));
  Value *A = B.conv(ConvInst::ConvOp::SExt32To64, B.getField(O, FA));
  Value *E = B.aload(Arr, B.i32(2), Type::I64);
  B.ret(B.add(A, E));
  EXPECT_EQ(static_cast<int64_t>(run(Fn, {})), 997);
}

TEST_F(InterpTest, ArrayLengthLoadsHeader) {
  Method *Fn = M.addMethod("len", Type::I32, {Type::I32});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  Value *Arr = B.newArray(Type::I32, Fn->arg(0));
  B.ret(B.arrayLength(Arr));
  EXPECT_EQ(run(Fn, {17}), 17u);
}

TEST_F(InterpTest, CallsAndRecursion) {
  Method *Fib = M.addMethod("fib", Type::I32, {Type::I32});
  IRBuilder B(M);
  BasicBlock *Entry = Fib->addBlock("entry");
  BasicBlock *Base = Fib->addBlock("base");
  BasicBlock *Rec = Fib->addBlock("rec");
  B.setInsertPoint(Entry);
  B.br(B.cmpLt(Fib->arg(0), B.i32(2)), Base, Rec);
  B.setInsertPoint(Base);
  B.ret(Fib->arg(0));
  B.setInsertPoint(Rec);
  Value *A = B.call(Fib, Type::I32, {B.sub(Fib->arg(0), B.i32(1))});
  Value *C = B.call(Fib, Type::I32, {B.sub(Fib->arg(0), B.i32(2))});
  B.ret(B.add(A, C));
  EXPECT_EQ(run(Fib, {10}), 55u);
  EXPECT_GT(Interp.stats().Calls, 100u);
}

TEST_F(InterpTest, NativeMethodsExecuteDirectly) {
  Method *Nat = M.addMethod("native.max", Type::I32, {Type::I32, Type::I32});
  Nat->setNative([](const std::vector<uint64_t> &Args) {
    int64_t A = static_cast<int64_t>(Args[0]);
    int64_t B = static_cast<int64_t>(Args[1]);
    return static_cast<uint64_t>(A > B ? A : B);
  });
  Method *Fn = M.addMethod("callNative", Type::I32, {Type::I32});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  B.ret(B.call(Nat, Type::I32, {Fn->arg(0), B.i32(42)}));
  EXPECT_EQ(run(Fn, {7}), 42u);
  EXPECT_EQ(run(Fn, {100}), 100u);
}

TEST_F(InterpTest, AllocationFailureTriggersGcAndRetries) {
  auto *Cls = Types.addClass("Blob");
  for (int I = 0; I < 20; ++I)
    Types.addField(Cls, "f" + std::to_string(I), Type::I64);

  // Allocate in a loop, keeping only the newest object: the rest is
  // garbage the collector must reclaim mid-run.
  Method *Fn = M.addMethod("churn", Type::I32, {Type::I32});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  workloads::LoopNest L(B, "i");
  PhiInst *I = L.civ(B.i32(0));
  L.beginBody(B.cmpLt(I, Fn->arg(0)));
  B.newObject(Cls); // 176 bytes of garbage per iteration.
  L.close();
  B.ret(B.i32(1));

  // 20000 iterations x 176B ~ 3.4 MB through a 1 MB heap.
  EXPECT_EQ(run(Fn, {20000}), 1u);
  EXPECT_GT(Interp.stats().GcRuns, 0u);
  EXPECT_EQ(Interp.stats().Allocations, 20000u);
}

TEST_F(InterpTest, GcPreservesLiveDataReachableFromFrames) {
  auto *Cls = Types.addClass("Cell");
  const vm::FieldDesc *FV = Types.addField(Cls, "v", Type::I32);
  auto *Blob = Types.addClass("Garbage");
  for (int I = 0; I < 30; ++I)
    Types.addField(Blob, "f" + std::to_string(I), Type::I64);

  Method *Fn = M.addMethod("live", Type::I32, {Type::I32});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  Value *Keep = B.newObject(Cls); // Live across the whole loop.
  B.putField(Keep, FV, B.i32(777));
  workloads::LoopNest L(B, "i");
  PhiInst *I = L.civ(B.i32(0));
  L.beginBody(B.cmpLt(I, Fn->arg(0)));
  B.newObject(Blob);
  L.close();
  B.ret(B.getField(Keep, FV)); // Must still read 777 after GCs.

  EXPECT_EQ(run(Fn, {10000}), 777u);
  EXPECT_GT(Interp.stats().GcRuns, 0u);
}

TEST_F(InterpTest, PrefetchInstructionsAreCountedAndHarmless) {
  Method *Fn = M.addMethod("pf", Type::I32, {Type::Ref, Type::I32});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  workloads::LoopNest L(B, "i");
  PhiInst *I = L.civ(B.i32(0));
  PhiInst *S = L.addCarried(B.i32(0));
  L.beginBody(B.cmpLt(I, Fn->arg(1)));
  Value *E = B.aload(Fn->arg(0), I, Type::I32);
  B.prefetch(Fn->arg(0), I, 4, 64);
  Value *Spec = B.specLoad(Fn->arg(0), I, 4, 16);
  B.prefetch(Spec, nullptr, 0, 0, /*Guarded=*/true);
  L.setNext(S, B.add(S, E));
  L.close();
  B.ret(S);

  vm::Addr Arr = Heap.allocArray(Type::I32, 64);
  for (unsigned I = 0; I != 64; ++I)
    Heap.store(Heap.elemAddr(Arr, I), Type::I32, I);
  EXPECT_EQ(run(Fn, {Arr, 64}), 2016u); // Sum unchanged by prefetching.
  EXPECT_EQ(Interp.stats().PrefetchRelated, 3u * 64);
  EXPECT_GT(Mem.stats().SwPrefetchesIssued, 0u);
  EXPECT_GT(Mem.stats().GuardedLoads, 0u);
}

TEST_F(InterpTest, SpecLoadOfInvalidAddressYieldsNull) {
  Method *Fn = M.addMethod("spec", Type::Ref, {Type::Ref});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  // Far beyond any allocation: the guard must suppress the access.
  Value *V = B.specLoad(Fn->arg(0), nullptr, 0, 1 << 30);
  B.ret(V);
  vm::Addr Arr = Heap.allocArray(Type::I32, 4);
  EXPECT_EQ(run(Fn, {Arr}), 0u);
}

TEST_F(InterpTest, RetiredCountsExcludePhis) {
  Method *Fn = M.addMethod("count", Type::I32, {Type::I32});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  workloads::LoopNest L(B, "i");
  PhiInst *I = L.civ(B.i32(0));
  L.beginBody(B.cmpLt(I, Fn->arg(0)));
  L.close();
  B.ret(I);

  uint64_t Before = Interp.stats().Retired;
  run(Fn, {5});
  uint64_t Retired = Interp.stats().Retired - Before;
  // Per iteration: cmp + br + body jump + (latch) add + jump = 5; plus the
  // entry jump, the final cmp + br, and ret: 5*5 + 1 + 2 + 1 = 29. Phis
  // retire nothing.
  EXPECT_EQ(Retired, 29u);
}

TEST_F(InterpTest, PhisAreParallelCopiesOnEachEdge) {
  // On the back edge x and y swap, a, b, c rotate, and p, q shift (q takes
  // x's old value). Copying the phis one after another would smear one
  // value over the others.
  Method *Fn = M.addMethod("phis", Type::I64, {Type::I32});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  workloads::LoopNest L(B, "i");
  PhiInst *I = L.civ(B.i32(0));
  std::vector<PhiInst *> V; // x y a b c p q
  for (int64_t Init = 1; Init <= 7; ++Init)
    V.push_back(L.addCarried(B.i64(Init)));
  L.beginBody(B.cmpLt(I, Fn->arg(0)));
  L.setNext(V[0], V[1]);
  L.setNext(V[1], V[0]);
  L.setNext(V[2], V[3]);
  L.setNext(V[3], V[4]);
  L.setNext(V[4], V[2]);
  L.setNext(V[5], V[6]);
  L.setNext(V[6], V[0]);
  L.close();
  Value *Digits = V[0];
  for (unsigned K = 1; K != V.size(); ++K)
    Digits = B.add(B.mul(Digits, B.i64(10)), V[K]);
  B.ret(Digits);

  EXPECT_EQ(run(Fn, {0}), 1234567u);
  EXPECT_EQ(run(Fn, {1}), 2145371u);
  EXPECT_EQ(run(Fn, {2}), 1253412u);
  EXPECT_EQ(run(Fn, {3}), 2134521u);
}

/// A method whose two loads execute in the opposite of their layout
/// order: entry -> late (loads b) -> early (loads a) -> ret a + b.
struct SitesKernel {
  Method *Fn;
  BasicBlock *Early;
  const vm::FieldDesc *FA, *FB;
  vm::Addr Obj;
};

SitesKernel buildSitesKernel(Module &M, vm::TypeTable &Types,
                             vm::Heap &Heap) {
  auto *Cls = Types.addClass("Sited");
  SitesKernel K;
  K.FA = Types.addField(Cls, "a", Type::I32);
  K.FB = Types.addField(Cls, "b", Type::I32);
  K.Fn = M.addMethod("sites", Type::I32, {Type::Ref});
  IRBuilder B(M);
  BasicBlock *Entry = K.Fn->addBlock("entry");
  K.Early = K.Fn->addBlock("early");
  BasicBlock *Late = K.Fn->addBlock("late");
  B.setInsertPoint(Entry);
  B.jump(Late);
  B.setInsertPoint(Late);
  Value *Bv = B.getField(K.Fn->arg(0), K.FB);
  B.jump(K.Early);
  B.setInsertPoint(K.Early);
  B.ret(B.add(B.getField(K.Fn->arg(0), K.FA), Bv));
  K.Fn->recomputePreds();
  K.Obj = Heap.allocObject(*Cls);
  Heap.store(K.Obj + K.FA->Offset, Type::I32, 3);
  Heap.store(K.Obj + K.FB->Offset, Type::I32, 4);
  return K;
}

/// Puts a fresh load of field b at the top of the kernel's early block:
/// it runs after the late load and before the early one.
void insertLoad(const SitesKernel &K) {
  K.Early->insertBefore(K.Early->front(),
                        std::make_unique<GetFieldInst>(K.Fn->arg(0), K.FB));
}

TEST_F(InterpTest, LoadSitesKeepFirstExecutionOrderAcrossRedecode) {
  SitesKernel K = buildSitesKernel(M, Types, Heap);
  sim::CountingSink Counts;
  LoggingSink Log(Counts);
  exec::Interpreter I(Heap, Log);

  EXPECT_EQ(I.run(K.Fn, {K.Obj}), 7u);
  // The late block's load runs first and so is site 0.
  EXPECT_EQ(Log.takeLoadSites(), (std::vector<exec::SiteId>{0, 1}));

  // Rewrite the IR out of band and drop the decoded form: the old loads
  // keep their ids, the new one gets the next id when it first runs.
  insertLoad(K);
  I.invalidateMethodInfo();
  EXPECT_EQ(I.run(K.Fn, {K.Obj}), 7u);
  EXPECT_EQ(Log.takeLoadSites(), (std::vector<exec::SiteId>{0, 2, 1}));
  EXPECT_EQ(I.loadSiteCount(), 3u);
}

TEST_F(InterpTest, LoadSitesSurviveMixedModeRecompile) {
  SitesKernel K = buildSitesKernel(M, Types, Heap);
  sim::CountingSink Counts;
  LoggingSink Log(Counts);
  exec::Interpreter I(Heap, Log);
  unsigned Compiles = 0;
  I.enableMixedMode(
      [&](Method *Fn, const std::vector<uint64_t> &) {
        ASSERT_EQ(Fn, K.Fn);
        ++Compiles;
        insertLoad(K);
      },
      /*Threshold=*/2);

  EXPECT_EQ(I.run(K.Fn, {K.Obj}), 7u);
  EXPECT_EQ(Log.takeLoadSites(), (std::vector<exec::SiteId>{0, 1}));
  for (int Run = 0; Run != 2; ++Run) {
    EXPECT_EQ(I.run(K.Fn, {K.Obj}), 7u);
    EXPECT_EQ(Log.takeLoadSites(), (std::vector<exec::SiteId>{0, 2, 1}));
  }
  EXPECT_EQ(Compiles, 1u);
  EXPECT_TRUE(I.isCompiled(K.Fn));
}

TEST_F(InterpTest, ComputeTicksReachTheSinkCoalesced) {
  // sum(arr, n): allocate, then per element a load, a call and adds.
  Method *Id = M.addMethod("id", Type::I32, {Type::I32});
  IRBuilder B(M);
  B.setInsertPoint(Id->addBlock("entry"));
  B.ret(Id->arg(0));
  auto *Cls = Types.addClass("Scratch");
  Method *Fn = M.addMethod("sum", Type::I32, {Type::Ref, Type::I32});
  B.setInsertPoint(Fn->addBlock("entry"));
  B.newObject(Cls);
  workloads::LoopNest L(B, "i");
  PhiInst *I = L.civ(B.i32(0));
  PhiInst *S = L.addCarried(B.i32(0));
  L.beginBody(B.cmpLt(I, Fn->arg(1)));
  Value *Slot = B.andOp(I, B.i32(63)); // A ring index; N stays below 64.
  Value *E = B.call(Id, Type::I32, {B.aload(Fn->arg(0), Slot, Type::I32)});
  L.setNext(S, B.add(S, E));
  L.close();
  B.ret(S);
  ASSERT_TRUE(verifyMethod(Fn));

  constexpr unsigned N = 40;
  vm::Addr Arr = Heap.allocArray(Type::I32, N);
  for (unsigned K = 0; K != N; ++K)
    Heap.store(Heap.elemAddr(Arr, K), Type::I32, K);

  // The stream one tick() per retired instruction gives: allocation (4)
  // and the entry jump; per element cmp, br, and, the load, call (5),
  // add, jump, latch add, jump; then the last cmp and br.
  const sim::MachineConfig P4 = *sim::MachineConfig::byName("pentium4");
  sim::MemorySystem Ref(P4);
  Ref.tick(4);
  Ref.tick(1);
  for (unsigned K = 0; K != N; ++K) {
    Ref.tick(1);
    Ref.tick(1);
    Ref.tick(1);
    Ref.load(Heap.elemAddr(Arr, K), 0);
    for (uint64_t Ticks : {5, 1, 1, 1, 1})
      Ref.tick(Ticks);
  }
  Ref.tick(1);
  Ref.tick(1);

  sim::CountingSink Counts;
  LoggingSink Log(Counts);
  exec::Interpreter Logged(Heap, Log);
  EXPECT_EQ(Logged.run(Fn, {Arr, N}), uint64_t(N * (N - 1) / 2));
  EXPECT_EQ(Counts.TicksTotal, 12u * N + 7);
  EXPECT_EQ(Counts.Loads, N);
  EXPECT_EQ(Counts.TickCalls, N + 1); // One run before each load, one after.
  for (size_t K = 1; K < Log.Log.size(); ++K)
    EXPECT_FALSE(Log.Log[K - 1].Kind == EventKind::Tick &&
                 Log.Log[K].Kind == EventKind::Tick)
        << "consecutive ticks at event " << K;

  sim::MemorySystem Live(P4);
  exec::Interpreter Timed(Heap, Live);
  Timed.run(Fn, {Arr, N});
  EXPECT_EQ(Live.cycles(), Ref.cycles());
  EXPECT_EQ(Live.acct(), Ref.acct());
  EXPECT_EQ(Live.stats(), Ref.stats());
}

TEST_F(InterpTest, TrapsFireAsBefore) {
  IRBuilder B(M);

  // A block without a terminator: its one instruction retires, then the
  // interpreter traps.
  Method *Open = M.addMethod("open", Type::I32, {Type::I32});
  B.setInsertPoint(Open->addBlock("entry"));
  B.add(Open->arg(0), B.i32(1));
  uint64_t Before = Interp.stats().Retired;
  expectTrap([&] { Interp.run(Open, {1}); },
             "fell off the end of a block without a terminator");
  EXPECT_EQ(Interp.stats().Retired - Before, 1u);

  for (Type Ty : {Type::I32, Type::I64}) {
    Method *Div = M.addMethod("div", Ty, {Ty, Ty});
    B.setInsertPoint(Div->addBlock("entry"));
    B.ret(B.div(Div->arg(0), Div->arg(1)));
    Method *Rem = M.addMethod("rem", Ty, {Ty, Ty});
    B.setInsertPoint(Rem->addBlock("entry"));
    B.ret(B.rem(Rem->arg(0), Rem->arg(1)));
    EXPECT_EQ(run(Div, {7, 2}), 3u);
    EXPECT_EQ(run(Rem, {7, 2}), 1u);
    expectTrap([&] { Interp.run(Div, {7, 0}); }, "integer division by zero");
    expectTrap([&] { Interp.run(Rem, {7, 0}); }, "integer remainder by zero");
  }

  // The budget trap fires on the first instruction past the budget.
  Method *Spin = M.addMethod("spin", Type::I32, {Type::I32});
  B.setInsertPoint(Spin->addBlock("entry"));
  workloads::LoopNest L(B, "i");
  PhiInst *I = L.civ(B.i32(0));
  L.beginBody(B.cmpLt(I, Spin->arg(0)));
  L.close();
  B.ret(I);
  sim::CountingSink Counts;
  exec::Interpreter Budgeted(Heap, Counts);
  Budgeted.setMaxInstructions(1000);
  EXPECT_EQ(Budgeted.run(Spin, {100}), 100u); // 504 retired.
  expectTrap([&] { Budgeted.run(Spin, {1000}); },
             "execution budget exceeded");
  EXPECT_EQ(Budgeted.stats().Retired, 1001u);
}

} // namespace
