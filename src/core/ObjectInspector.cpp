//===- core/ObjectInspector.cpp -------------------------------------------===//

#include "core/ObjectInspector.h"

#include "obs/DecisionLog.h"
#include "support/ErrorHandling.h"

using namespace spf;
using namespace spf::core;
using namespace spf::ir;

namespace {

/// The inspection value lattice: a concrete 64-bit slot or `unknown`.
struct IVal {
  bool Known = false;
  uint64_t Raw = 0;

  static IVal unknown() { return IVal(); }
  static IVal known(uint64_t V) { return IVal{true, V}; }
};

/// Base simulated address of the inspector's private heap, far above any
/// real heap address so the two can never collide.
constexpr vm::Addr PrivateHeapBase = 0x4000000000ull;

class InspectRun {
public:
  InspectRun(const vm::Heap &Heap, const analysis::LoopInfo &LI,
             const InspectorOptions &Opts, Method *M,
             const std::vector<uint64_t> &Args, analysis::Loop *Target,
             const LoadDependenceGraph &Graph)
      : Heap(Heap), LI(LI), Opts(Opts), M(M), Target(Target), Graph(Graph) {
    M->renumber();
    unsigned NumValues = M->numArgs();
    for (const auto &BB : M->blocks())
      NumValues += BB->size();
    Regs.assign(NumValues, IVal::unknown());
    for (unsigned I = 0, E = M->numArgs(); I != E; ++I)
      if (I < Args.size())
        Regs[M->arg(I)->id()] = IVal::known(Args[I]);
  }

  InspectionResult run();

private:
  IVal eval(const std::vector<IVal> &Regs, const Value *V) const {
    if (const auto *C = dyn_cast<Constant>(V))
      return IVal::known(C->raw());
    return Regs[V->id()];
  }

  bool isPrivate(vm::Addr A) const { return A >= PrivateHeapBase; }

  /// Side-effect-free typed load: store buffer first, then the private
  /// heap (zero-initialized), then the real heap.
  IVal loadMem(vm::Addr A, Type Ty) {
    auto It = Shadow.find(A);
    if (It != Shadow.end())
      return It->second;
    if (isPrivate(A)) {
      if (A < PrivateTop)
        return IVal::known(0); // Untouched private memory reads as zero.
      return IVal::unknown();
    }
    if (Heap.isValidAccess(A, ir::storageSize(Ty)))
      return IVal::known(Heap.load(A, Ty));
    return IVal::unknown();
  }

  /// Buffered store; never touches the real heap.
  void storeMem(vm::Addr A, IVal V) { Shadow[A] = V; }

  /// Length of the array at \p Base, if determinable.
  IVal arrayLengthOf(vm::Addr Base) {
    auto It = Shadow.find(Base + vm::ArrayLengthOffset);
    if (It != Shadow.end())
      return It->second;
    if (isPrivate(Base))
      return IVal::unknown(); // Allocated with unknown length.
    if (Heap.isValidAccess(Base, vm::ObjectHeaderSize) && Heap.isArray(Base))
      return IVal::known(
          static_cast<uint64_t>(static_cast<int64_t>(Heap.arrayLength(Base))));
    return IVal::unknown();
  }

  IVal evalBinary(const std::vector<IVal> &Regs, const BinaryInst *B);
  IVal evalConv(const std::vector<IVal> &Regs, const ConvInst *C);
  std::optional<vm::Addr> loadAddress(const std::vector<IVal> &Regs,
                                      const Instruction *I);
  void recordAddress(const Instruction *I, vm::Addr A);
  vm::Addr privateAlloc(uint64_t Size);

  BasicBlock *pickUnknownBranch(BasicBlock *BB, const BranchInst *Br);
  IVal interpretCall(Method *Callee, const std::vector<IVal> &Args,
                     unsigned Depth);
  bool edgeAllowed(BasicBlock *From, BasicBlock *To);
  void onBlockEntered(BasicBlock *From, BasicBlock *To, bool &Stop);

  const vm::Heap &Heap;
  const analysis::LoopInfo &LI;
  const InspectorOptions &Opts;
  Method *M;
  analysis::Loop *Target;
  const LoadDependenceGraph &Graph;

  std::vector<IVal> Regs;
  std::unordered_map<vm::Addr, IVal> Shadow;
  vm::Addr PrivateTop = PrivateHeapBase;

  /// Iterations of each loop since it was last entered from outside.
  std::unordered_map<const analysis::Loop *, unsigned> IterThisEntry;

  /// Loop analyses for callees stepped into by FollowCalls.
  struct CalleeInfo {
    analysis::DominatorTree DT;
    analysis::LoopInfo LI;
    explicit CalleeInfo(Method *M) : DT(M), LI(M, DT) {}
  };
  std::unordered_map<Method *, std::unique_ptr<CalleeInfo>> CalleeAnalyses;

  InspectionResult Result;
  unsigned CurrentIteration = 0;
};

} // namespace

IVal InspectRun::evalBinary(const std::vector<IVal> &Regs,
                            const BinaryInst *B) {
  IVal L = eval(Regs, B->lhs()), R = eval(Regs, B->rhs());
  if (!L.Known || !R.Known)
    return IVal::unknown();

  using BinOp = BinaryInst::BinOp;
  Type OpTy = B->lhs()->type();

  if (OpTy == Type::F64) {
    double A, C;
    __builtin_memcpy(&A, &L.Raw, 8);
    __builtin_memcpy(&C, &R.Raw, 8);
    double Res;
    switch (B->binOp()) {
    case BinOp::Add: Res = A + C; break;
    case BinOp::Sub: Res = A - C; break;
    case BinOp::Mul: Res = A * C; break;
    case BinOp::Div: Res = A / C; break;
    case BinOp::CmpEq: return IVal::known(A == C);
    case BinOp::CmpNe: return IVal::known(A != C);
    case BinOp::CmpLt: return IVal::known(A < C);
    case BinOp::CmpLe: return IVal::known(A <= C);
    case BinOp::CmpGt: return IVal::known(A > C);
    case BinOp::CmpGe: return IVal::known(A >= C);
    default: return IVal::unknown();
    }
    uint64_t Bits;
    __builtin_memcpy(&Bits, &Res, 8);
    return IVal::known(Bits);
  }

  int64_t A = static_cast<int64_t>(L.Raw);
  int64_t C = static_cast<int64_t>(R.Raw);
  auto Wrap = [OpTy](int64_t V) {
    if (OpTy == Type::I32)
      return IVal::known(static_cast<uint64_t>(
          static_cast<int64_t>(static_cast<int32_t>(V))));
    return IVal::known(static_cast<uint64_t>(V));
  };

  switch (B->binOp()) {
  case BinOp::Add: return Wrap(A + C);
  case BinOp::Sub: return Wrap(A - C);
  case BinOp::Mul: return Wrap(A * C);
  case BinOp::Div: return C ? Wrap(A / C) : IVal::unknown();
  case BinOp::Rem: return C ? Wrap(A % C) : IVal::unknown();
  case BinOp::And: return Wrap(A & C);
  case BinOp::Or: return Wrap(A | C);
  case BinOp::Xor: return Wrap(A ^ C);
  case BinOp::Shl: return Wrap(A << (C & 63));
  case BinOp::Shr: return Wrap(A >> (C & 63));
  case BinOp::CmpEq: return IVal::known(L.Raw == R.Raw);
  case BinOp::CmpNe: return IVal::known(L.Raw != R.Raw);
  case BinOp::CmpLt: return IVal::known(A < C);
  case BinOp::CmpLe: return IVal::known(A <= C);
  case BinOp::CmpGt: return IVal::known(A > C);
  case BinOp::CmpGe: return IVal::known(A >= C);
  }
  spf_unreachable("unknown binop");
}

IVal InspectRun::evalConv(const std::vector<IVal> &Regs,
                          const ConvInst *C) {
  IVal S = eval(Regs, C->src());
  if (!S.Known)
    return IVal::unknown();
  switch (C->convOp()) {
  case ConvInst::ConvOp::SExt32To64:
    return S;
  case ConvInst::ConvOp::Trunc64To32:
    return IVal::known(static_cast<uint64_t>(
        static_cast<int64_t>(static_cast<int32_t>(S.Raw))));
  case ConvInst::ConvOp::IToF: {
    double D = static_cast<double>(static_cast<int64_t>(S.Raw));
    uint64_t Bits;
    __builtin_memcpy(&Bits, &D, 8);
    return IVal::known(Bits);
  }
  case ConvInst::ConvOp::FToI: {
    double D;
    __builtin_memcpy(&D, &S.Raw, 8);
    return IVal::known(static_cast<uint64_t>(
        static_cast<int64_t>(static_cast<int32_t>(D))));
  }
  }
  spf_unreachable("unknown conversion");
}

/// Computes the memory address a heap load will access, when known.
std::optional<vm::Addr>
InspectRun::loadAddress(const std::vector<IVal> &Regs, const Instruction *I) {
  if (const auto *G = dyn_cast<GetFieldInst>(I)) {
    IVal Obj = eval(Regs, G->object());
    if (!Obj.Known || !Obj.Raw)
      return std::nullopt;
    return Obj.Raw + G->field()->Offset;
  }
  if (const auto *A = dyn_cast<ALoadInst>(I)) {
    IVal Arr = eval(Regs, A->array());
    IVal Idx = eval(Regs, A->index());
    if (!Arr.Known || !Arr.Raw || !Idx.Known)
      return std::nullopt;
    int64_t Index = static_cast<int64_t>(Idx.Raw);
    if (Index < 0)
      return std::nullopt;
    return Arr.Raw + vm::ObjectHeaderSize +
           static_cast<uint64_t>(Index) * ir::storageSize(A->type());
  }
  if (const auto *L = dyn_cast<ArrayLengthInst>(I)) {
    IVal Arr = eval(Regs, L->array());
    if (!Arr.Known || !Arr.Raw)
      return std::nullopt;
    return Arr.Raw + vm::ArrayLengthOffset;
  }
  if (const auto *S = dyn_cast<GetStaticInst>(I))
    return S->variable()->Address;
  return std::nullopt;
}

void InspectRun::recordAddress(const Instruction *I, vm::Addr A) {
  if (!Result.ReachedTarget)
    return;
  auto &Recs = Result.Trace[I];
  // First access per iteration only: the paper defines strides over the
  // per-iteration address sequence.
  if (!Recs.empty() && Recs.back().Iteration == CurrentIteration)
    return;
  Recs.push_back(AddrRecord{CurrentIteration, A});
}

vm::Addr InspectRun::privateAlloc(uint64_t Size) {
  vm::Addr A = PrivateTop;
  PrivateTop += (Size + 7) & ~7ull;
  return A;
}

/// Chooses a successor for a branch whose condition is unknown. Preference
/// order: stay inside the target loop; then prefer the shallower-nested
/// successor (progress outer levels rather than re-running inner loops);
/// then the false edge.
BasicBlock *InspectRun::pickUnknownBranch(BasicBlock *BB,
                                          const BranchInst *Br) {
  (void)BB;
  BasicBlock *T = Br->trueSuccessor();
  BasicBlock *F = Br->falseSuccessor();

  bool TIn = Target->contains(T);
  bool FIn = Target->contains(F);
  if (TIn != FIn)
    return TIn ? T : F;

  auto Depth = [this](BasicBlock *B) {
    analysis::Loop *L = LI.loopFor(B);
    return L ? L->depth() : 0u;
  };
  unsigned DT = Depth(T), DF = Depth(F);
  if (DT != DF)
    return DT < DF ? T : F;
  return F;
}

/// Returns false when taking From -> To would keep iterating a capped
/// loop beyond its per-entry budget. Two cases matter: (a) a back edge
/// re-entering the header of a capped loop, and (b) the header of an
/// over-budget loop branching back into its own body (the common rotated
/// form where the back edge itself is an unconditional jump).
bool InspectRun::edgeAllowed(BasicBlock *From, BasicBlock *To) {
  auto CapFor = [this](const analysis::Loop *L) {
    return Target->contains(L->header()) ? Opts.InnerLoopCap
                                         : Opts.PreLoopCap;
  };
  auto IsCapped = [this](const analysis::Loop *L) {
    // The target is counted separately; enclosing loops run freely (they
    // only execute until the target is reached).
    return L != Target && !L->contains(Target->header());
  };
  auto Count = [this](const analysis::Loop *L) {
    auto It = IterThisEntry.find(L);
    return It == IterThisEntry.end() ? 0u : It->second;
  };

  // (a) Back edge into a capped header.
  analysis::Loop *LTo = LI.loopFor(To);
  if (LTo && LTo->header() == To && LTo->contains(From) && IsCapped(LTo) &&
      Count(LTo) >= CapFor(LTo))
    return false;

  // (b) Header of an over-budget loop continuing inside the loop.
  analysis::Loop *LFrom = LI.loopFor(From);
  if (LFrom && LFrom->header() == From && LFrom->contains(To) &&
      IsCapped(LFrom) && Count(LFrom) > CapFor(LFrom))
    return false;

  return true;
}

/// Bookkeeping when control moves to \p To: loop iteration counting,
/// target-loop iteration limit, trip statistics.
void InspectRun::onBlockEntered(BasicBlock *From, BasicBlock *To,
                                bool &Stop) {
  // Leaving the target loop after having reached it ends inspection.
  if (Result.ReachedTarget && !Target->contains(To)) {
    Result.TargetExitedEarly =
        Result.IterationsObserved < Opts.MaxIterations;
    Stop = true;
    return;
  }

  analysis::Loop *L = LI.loopFor(To);
  if (!L || L->header() != To)
    return;

  bool BackEdge = From && L->contains(From);
  unsigned &Count = IterThisEntry[L];
  Count = BackEdge ? Count + 1 : 1;

  if (Target->contains(To) && L != Target) {
    TripStats &TS = Result.SubLoopTrips[L];
    if (!BackEdge)
      ++TS.Entries;
    ++TS.Iterations;
  }

  if (L == Target) {
    Result.ReachedTarget = true;
    if (Result.IterationsObserved >= Opts.MaxIterations) {
      Stop = true; // Observed enough iterations.
      return;
    }
    CurrentIteration = Result.IterationsObserved++;
  }
}

InspectionResult InspectRun::run() {
  BasicBlock *BB = M->entry();
  BasicBlock *PrevBB = nullptr;
  bool Stop = false;

  onBlockEntered(nullptr, BB, Stop);

  std::vector<std::pair<unsigned, IVal>> PhiUpdates;

  while (!Stop) {
    if (PrevBB) {
      PhiUpdates.clear();
      for (const auto &IP : BB->instructions()) {
        auto *Phi = dyn_cast<PhiInst>(IP.get());
        if (!Phi)
          break;
        Value *In = Phi->valueFor(PrevBB);
        PhiUpdates.emplace_back(Phi->id(),
                                In ? eval(Regs, In) : IVal::unknown());
      }
      for (const auto &[Id, V] : PhiUpdates)
        Regs[Id] = V;
    }

    BasicBlock *NextBB = nullptr;

    for (const auto &IP : BB->instructions()) {
      Instruction *I = IP.get();
      if (isa<PhiInst>(I))
        continue;

      if (++Result.StepsUsed > Opts.StepBudget)
        return Result; // Budget exceeded: keep what we have.

      switch (I->opcode()) {
      case Opcode::Binary:
        Regs[I->id()] = evalBinary(Regs, cast<BinaryInst>(I));
        break;
      case Opcode::Conv:
        Regs[I->id()] = evalConv(Regs, cast<ConvInst>(I));
        break;

      case Opcode::GetField:
      case Opcode::GetStatic:
      case Opcode::ALoad:
      case Opcode::ArrayLength: {
        auto AddrOpt = loadAddress(Regs, I);
        if (!AddrOpt) {
          Regs[I->id()] = IVal::unknown();
          break;
        }
        vm::Addr A = *AddrOpt;
        if (Graph.nodeFor(I))
          recordAddress(I, A);
        if (I->opcode() == Opcode::ArrayLength) {
          auto *AL = cast<ArrayLengthInst>(I);
          Regs[I->id()] = arrayLengthOf(eval(Regs, AL->array()).Raw);
        } else {
          Regs[I->id()] = loadMem(A, I->type());
        }
        break;
      }

      case Opcode::PutField: {
        auto *P = cast<PutFieldInst>(I);
        IVal Obj = eval(Regs, P->object());
        if (Obj.Known && Obj.Raw)
          storeMem(Obj.Raw + P->field()->Offset, eval(Regs, P->value()));
        break;
      }
      case Opcode::PutStatic: {
        auto *P = cast<PutStaticInst>(I);
        storeMem(P->variable()->Address, eval(Regs, P->value()));
        break;
      }
      case Opcode::AStore: {
        auto *S = cast<AStoreInst>(I);
        IVal Arr = eval(Regs, S->array());
        IVal Idx = eval(Regs, S->index());
        if (Arr.Known && Arr.Raw && Idx.Known) {
          vm::Addr A = Arr.Raw + vm::ObjectHeaderSize +
                       Idx.Raw * ir::storageSize(S->value()->type());
          storeMem(A, eval(Regs, S->value()));
        }
        break;
      }

      case Opcode::NewObject: {
        auto *N = cast<NewObjectInst>(I);
        vm::Addr A = privateAlloc(N->objectClass()->instanceSize());
        Regs[I->id()] = IVal::known(A);
        break;
      }
      case Opcode::NewArray: {
        auto *N = cast<NewArrayInst>(I);
        IVal Len = eval(Regs, N->length());
        uint64_t Elems = Len.Known ? Len.Raw : 64;
        vm::Addr A = privateAlloc(vm::ObjectHeaderSize +
                                  Elems *
                                      ir::storageSize(N->elementType()));
        if (Len.Known)
          storeMem(A + vm::ArrayLengthOffset, Len);
        Regs[I->id()] = IVal::known(A);
        break;
      }

      case Opcode::Call: {
        // By default: "we interpret a method invocation by simply
        // skipping it and assuming that the return value, if any, is
        // unknown." With FollowCalls (the paper's discussed extension)
        // non-recursive callees are stepped into.
        auto *C = cast<CallInst>(I);
        IVal R = IVal::unknown();
        if (Opts.FollowCalls && C->callee() && !C->callee()->isNative()) {
          std::vector<IVal> CallArgs;
          for (Value *Op : C->operands())
            CallArgs.push_back(eval(Regs, Op));
          R = interpretCall(C->callee(), CallArgs, /*Depth=*/1);
        }
        if (I->type() != Type::Void)
          Regs[I->id()] = R;
        break;
      }

      case Opcode::Prefetch:
        break; // Already-optimized inner loops: prefetches are no-ops.
      case Opcode::SpecLoad: {
        auto *S = cast<SpecLoadInst>(I);
        IVal Base = eval(Regs, S->base());
        IVal Idx = S->index() ? eval(Regs, S->index()) : IVal::known(0);
        if (Base.Known && Idx.Known) {
          vm::Addr A = Base.Raw + S->displacement() +
                       Idx.Raw * static_cast<uint64_t>(S->scale());
          Regs[I->id()] = loadMem(A, Type::Ref);
        } else {
          Regs[I->id()] = IVal::unknown();
        }
        break;
      }

      case Opcode::Phi:
        break;

      case Opcode::Branch: {
        auto *Br = cast<BranchInst>(I);
        IVal Cond = eval(Regs, Br->condition());
        BasicBlock *Taken;
        if (Cond.Known)
          Taken = Cond.Raw ? Br->trueSuccessor() : Br->falseSuccessor();
        else
          Taken = pickUnknownBranch(BB, Br);

        // Respect per-entry loop caps: if the chosen edge would re-enter a
        // capped loop, take the other side when possible.
        if (!edgeAllowed(BB, Taken)) {
          BasicBlock *Other = Taken == Br->trueSuccessor()
                                  ? Br->falseSuccessor()
                                  : Br->trueSuccessor();
          if (edgeAllowed(BB, Other))
            Taken = Other;
        }
        NextBB = Taken;
        break;
      }
      case Opcode::Jump:
        NextBB = cast<JumpInst>(I)->target();
        break;
      case Opcode::Ret:
        return Result;
      }

      if (NextBB)
        break;
    }

    if (!NextBB) {
      // Malformed IR (block without a terminator): a broken input must
      // degrade to "no prefetch for this loop", never kill the JIT.
      Result.Degraded = true;
      Result.DegradeReason = "malformed IR: block without terminator";
      if (auto *DL = obs::DecisionScope::current())
        DL->event("inspect", "degrade-origin", BB ? "@" + BB->name() : "",
                  Result.DegradeReason);
      Result.Trace.clear();
      return Result;
    }
    onBlockEntered(BB, NextBB, Stop);
    PrevBB = BB;
    BB = NextBB;
  }
  return Result;
}

/// Inter-procedural inspection: executes \p Callee with the given
/// argument lattice values, sharing the store buffer, private heap, and
/// step budget. Callee loops run one iteration (the pre-target rule
/// generalized); unknown branches take the false edge; recursion is
/// depth-limited. Returns the callee's result lattice value.
IVal InspectRun::interpretCall(Method *Callee,
                               const std::vector<IVal> &Args,
                               unsigned Depth) {
  if (Depth > Opts.MaxCallDepth || Callee->numBlocks() == 0)
    return IVal::unknown();

  Callee->renumber();
  unsigned NumValues = Callee->numArgs();
  for (const auto &BB : Callee->blocks())
    NumValues += BB->size();
  std::vector<IVal> Regs(NumValues, IVal::unknown());
  for (unsigned I = 0, E = Callee->numArgs(); I != E; ++I)
    if (I < Args.size())
      Regs[Callee->arg(I)->id()] = Args[I];

  // Per-callee loop info (cached across calls within one inspection).
  auto &Analyses = CalleeAnalyses[Callee];
  if (!Analyses) {
    Callee->recomputePreds();
    Analyses = std::make_unique<CalleeInfo>(Callee);
  }
  const analysis::LoopInfo &CLI = Analyses->LI;

  std::unordered_map<const analysis::Loop *, unsigned> Iter;
  BasicBlock *BB = Callee->entry();
  const BasicBlock *PrevBB = nullptr;
  std::vector<std::pair<unsigned, IVal>> PhiUpdates;

  while (true) {
    if (PrevBB) {
      PhiUpdates.clear();
      for (const auto &IP : BB->instructions()) {
        auto *Phi = dyn_cast<PhiInst>(IP.get());
        if (!Phi)
          break;
        Value *In = Phi->valueFor(PrevBB);
        PhiUpdates.emplace_back(Phi->id(),
                                In ? eval(Regs, In) : IVal::unknown());
      }
      for (const auto &[Id, V] : PhiUpdates)
        Regs[Id] = V;
    }

    BasicBlock *NextBB = nullptr;
    for (const auto &IP : BB->instructions()) {
      Instruction *I = IP.get();
      if (isa<PhiInst>(I))
        continue;
      if (++Result.StepsUsed > Opts.StepBudget)
        return IVal::unknown();

      switch (I->opcode()) {
      case Opcode::Binary:
        Regs[I->id()] = evalBinary(Regs, cast<BinaryInst>(I));
        break;
      case Opcode::Conv:
        Regs[I->id()] = evalConv(Regs, cast<ConvInst>(I));
        break;
      case Opcode::GetField:
      case Opcode::GetStatic:
      case Opcode::ALoad: {
        auto AddrOpt = loadAddress(Regs, I);
        Regs[I->id()] =
            AddrOpt ? loadMem(*AddrOpt, I->type()) : IVal::unknown();
        break;
      }
      case Opcode::ArrayLength: {
        IVal Arr = eval(Regs, cast<ArrayLengthInst>(I)->array());
        Regs[I->id()] = (Arr.Known && Arr.Raw) ? arrayLengthOf(Arr.Raw)
                                               : IVal::unknown();
        break;
      }
      case Opcode::PutField: {
        auto *P = cast<PutFieldInst>(I);
        IVal Obj = eval(Regs, P->object());
        if (Obj.Known && Obj.Raw)
          storeMem(Obj.Raw + P->field()->Offset, eval(Regs, P->value()));
        break;
      }
      case Opcode::PutStatic: {
        auto *P = cast<PutStaticInst>(I);
        storeMem(P->variable()->Address, eval(Regs, P->value()));
        break;
      }
      case Opcode::AStore: {
        auto *S = cast<AStoreInst>(I);
        IVal Arr = eval(Regs, S->array());
        IVal Idx = eval(Regs, S->index());
        if (Arr.Known && Arr.Raw && Idx.Known)
          storeMem(Arr.Raw + vm::ObjectHeaderSize +
                       Idx.Raw * ir::storageSize(S->value()->type()),
                   eval(Regs, S->value()));
        break;
      }
      case Opcode::NewObject:
        Regs[I->id()] = IVal::known(
            privateAlloc(cast<NewObjectInst>(I)->objectClass()
                             ->instanceSize()));
        break;
      case Opcode::NewArray: {
        auto *N = cast<NewArrayInst>(I);
        IVal Len = eval(Regs, N->length());
        uint64_t Elems = Len.Known ? Len.Raw : 64;
        vm::Addr A = privateAlloc(
            vm::ObjectHeaderSize + Elems * ir::storageSize(N->elementType()));
        if (Len.Known)
          storeMem(A + vm::ArrayLengthOffset, Len);
        Regs[I->id()] = IVal::known(A);
        break;
      }
      case Opcode::Call: {
        auto *C = cast<CallInst>(I);
        IVal R = IVal::unknown();
        if (C->callee() && !C->callee()->isNative() &&
            Depth < Opts.MaxCallDepth) {
          std::vector<IVal> SubArgs;
          for (Value *Op : C->operands())
            SubArgs.push_back(eval(Regs, Op));
          R = interpretCall(C->callee(), SubArgs, Depth + 1);
        }
        if (I->type() != Type::Void)
          Regs[I->id()] = R;
        break;
      }
      case Opcode::Prefetch:
      case Opcode::Phi:
        break;
      case Opcode::SpecLoad: {
        auto *S = cast<SpecLoadInst>(I);
        IVal Base = eval(Regs, S->base());
        IVal Idx = S->index() ? eval(Regs, S->index()) : IVal::known(0);
        Regs[I->id()] =
            (Base.Known && Idx.Known)
                ? loadMem(Base.Raw + S->displacement() +
                              Idx.Raw * static_cast<uint64_t>(S->scale()),
                          Type::Ref)
                : IVal::unknown();
        break;
      }
      case Opcode::Branch: {
        auto *Br = cast<BranchInst>(I);
        IVal Cond = eval(Regs, Br->condition());
        BasicBlock *Taken = Cond.Known
                                ? (Cond.Raw ? Br->trueSuccessor()
                                            : Br->falseSuccessor())
                                : Br->falseSuccessor();
        // Callee loops follow the generalized pre-target rule: one
        // iteration per entry, then force the exit edge when possible.
        auto OverBudget = [&](BasicBlock *To) {
          analysis::Loop *L = CLI.loopFor(To);
          if (L && L->header() == To && L->contains(BB))
            return Iter[L] >= Opts.PreLoopCap;
          analysis::Loop *LF = CLI.loopFor(BB);
          if (LF && LF->header() == BB && LF->contains(To))
            return Iter[LF] > Opts.PreLoopCap;
          return false;
        };
        if (OverBudget(Taken)) {
          BasicBlock *Other = Taken == Br->trueSuccessor()
                                  ? Br->falseSuccessor()
                                  : Br->trueSuccessor();
          if (!OverBudget(Other))
            Taken = Other;
        }
        NextBB = Taken;
        break;
      }
      case Opcode::Jump:
        NextBB = cast<JumpInst>(I)->target();
        break;
      case Opcode::Ret: {
        auto *R = cast<RetInst>(I);
        return R->value() ? eval(Regs, R->value()) : IVal::unknown();
      }
      }
      if (NextBB)
        break;
    }

    if (!NextBB) {
      Result.Degraded = true;
      Result.DegradeReason =
          "malformed IR: callee block without terminator";
      if (auto *DL = obs::DecisionScope::current())
        DL->event("inspect", "degrade-origin", "", Result.DegradeReason);
      return IVal::unknown();
    }
    // Loop iteration accounting.
    if (analysis::Loop *L = CLI.loopFor(NextBB))
      if (L->header() == NextBB)
        Iter[L] = L->contains(BB) ? Iter[L] + 1 : 1;
    PrevBB = BB;
    BB = NextBB;
  }
}

ObjectInspector::ObjectInspector(const vm::Heap &Heap,
                                 const analysis::LoopInfo &LI,
                                 InspectorOptions Opts)
    : Heap(Heap), LI(LI), Opts(Opts) {}

InspectionResult ObjectInspector::inspect(Method *M,
                                          const std::vector<uint64_t> &Args,
                                          analysis::Loop *TargetLoop,
                                          const LoadDependenceGraph &Graph) {
  InspectRun Run(Heap, LI, Opts, M, Args, TargetLoop, Graph);
  return Run.run();
}
