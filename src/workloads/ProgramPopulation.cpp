//===- workloads/ProgramPopulation.cpp ------------------------------------===//

#include "workloads/ProgramPopulation.h"

#include "ir/Verifier.h"

using namespace spf;
using namespace spf::workloads;
using namespace spf::ir;

namespace {

/// Emits a chain of ~N arithmetic instructions over \p Seeds.
Value *emitArithChain(IRBuilder &B, SplitMix64 &Rng,
                      std::vector<Value *> &Pool, unsigned N) {
  Value *Last = Pool.back();
  for (unsigned I = 0; I != N; ++I) {
    Value *A = Pool[Rng.nextBelow(Pool.size())];
    Value *C = Pool[Rng.nextBelow(Pool.size())];
    switch (Rng.nextBelow(6)) {
    case 0: Last = B.add(A, C); break;
    case 1: Last = B.sub(A, C); break;
    case 2: Last = B.mul(A, C); break;
    case 3: Last = B.xorOp(A, C); break;
    case 4: Last = B.andOp(A, B.i32(0x7fffffff)); break;
    default:
      Last = B.shl(A, B.i32(static_cast<int32_t>(Rng.nextBelow(5)) + 1));
      break;
    }
    Pool.push_back(Last);
    if (Pool.size() > 12)
      Pool.erase(Pool.begin());
  }
  return Last;
}

/// One ordinary method: straight-line, diamond, or a small counted loop.
Method *buildPopulationMethod(Module &Mod, SplitMix64 &Rng,
                              unsigned Index) {
  Method *M = Mod.addMethod("pop.m" + std::to_string(Index),
                                  Type::I32, {Type::I32, Type::I32});
  IRBuilder B(Mod);
  B.setInsertPoint(M->addBlock("entry"));
  std::vector<Value *> Pool = {M->arg(0), M->arg(1), B.i32(17)};

  switch (Rng.nextBelow(3)) {
  case 0: { // Straight line.
    Value *R = emitArithChain(B, Rng, Pool,
                              12 + static_cast<unsigned>(Rng.nextBelow(40)));
    B.ret(R);
    break;
  }
  case 1: { // Diamond.
    Value *Pre = emitArithChain(B, Rng, Pool,
                                6 + static_cast<unsigned>(Rng.nextBelow(12)));
    BasicBlock *T = M->addBlock("t");
    BasicBlock *F = M->addBlock("f");
    BasicBlock *J = M->addBlock("join");
    B.br(B.cmpLt(Pre, B.i32(0)), T, F);
    B.setInsertPoint(T);
    Value *Vt = B.add(Pre, B.i32(3));
    B.jump(J);
    B.setInsertPoint(F);
    Value *Vf = B.sub(Pre, B.i32(5));
    B.jump(J);
    B.setInsertPoint(J);
    PhiInst *P = B.phi(Type::I32);
    Value *Post = B.mul(P, B.i32(7));
    B.ret(Post);
    M->recomputePreds();
    P->addIncoming(T, Vt);
    P->addIncoming(F, Vf);
    break;
  }
  default: { // Small counted loop (no heap loads: nothing to prefetch).
    LoopNest L(B, "k");
    PhiInst *K = L.civ(B.i32(0));
    PhiInst *Acc = L.addCarried(M->arg(0));
    L.beginBody(B.cmpLt(K, M->arg(1)));
    Value *Next = B.add(B.mul(Acc, B.i32(31)), K);
    L.setNext(Acc, B.xorOp(Next, B.shr(Next, B.i32(5))));
    L.close();
    B.ret(Acc);
    break;
  }
  }
  assert(verifyMethod(M) && "population method must verify");
  return M;
}

} // namespace

void workloads::addCompiledPopulation(BuiltWorkload &B,
                                      unsigned NumMethods, uint64_t Seed) {
  SplitMix64 Rng(Seed ^ 0x9e3779b97f4a7c15ULL);
  B.PopulationBegin = std::min(B.PopulationBegin, B.CompileUnits.size());
  for (unsigned I = 0; I != NumMethods; ++I) {
    Method *M = buildPopulationMethod(*B.Module, Rng, I);
    // Compiled without argument values, like any method the JIT picks up
    // from its invocation-counter queue.
    B.CompileUnits.push_back({M, {}});
  }
}

unsigned workloads::applyPhaseChange(vm::Heap &H, uint64_t Seed) {
  SplitMix64 Rng(Seed ^ 0xa5a5a5a55a5a5a5aULL);
  unsigned Shuffled = 0;
  // Linear heap walk (free-list holes are filler I64 arrays, skipped as
  // non-Ref). This is a model-level mutation of the simulated program's
  // data, not simulated memory traffic: no cycles are charged.
  for (vm::Addr A = H.heapBase(); A < H.heapTop(); A += H.objectSize(A)) {
    if (!H.isArray(A) || H.arrayElemType(A) != ir::Type::Ref)
      continue;
    uint64_t N = H.arrayLength(A);
    if (N < 2)
      continue;
    // Only traversal-order arrays are fair game. An array with a null
    // slot is structural (a Vector's spare capacity, say): programs
    // index those positionally, and moving the null under a fixed index
    // would turn a phase change into a crash.
    bool HasNull = false;
    for (uint64_t I = 0; I != N && !HasNull; ++I)
      HasNull = H.load(H.elemAddr(A, I), ir::Type::Ref) == 0;
    if (HasNull)
      continue;
    for (uint64_t I = N - 1; I > 0; --I) {
      uint64_t J = Rng.nextBelow(I + 1);
      uint64_t Vi = H.load(H.elemAddr(A, I), ir::Type::Ref);
      uint64_t Vj = H.load(H.elemAddr(A, J), ir::Type::Ref);
      H.store(H.elemAddr(A, I), ir::Type::Ref, Vj);
      H.store(H.elemAddr(A, J), ir::Type::Ref, Vi);
    }
    ++Shuffled;
  }
  return Shuffled;
}
