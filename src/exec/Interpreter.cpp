//===- exec/Interpreter.cpp -----------------------------------------------===//

#include "exec/Interpreter.h"

#include "support/ErrorHandling.h"
#include "support/Status.h"

#include <algorithm>

using namespace spf;
using namespace spf::exec;
using namespace spf::ir;

namespace {

/// Runs a callable on scope exit, including exceptional unwinds; keeps
/// ActiveFrames/CallDepth consistent when a trap propagates out of a
/// deeply nested simulated call.
template <typename Fn> struct ScopeExit {
  Fn F;
  ~ScopeExit() { F(); }
};
template <typename Fn> ScopeExit(Fn) -> ScopeExit<Fn>;

/// A runtime condition the simulated program cannot recover from. Thrown
/// (not fatal): the VM process survives, the harness quarantines the cell.
[[noreturn]] void trap(const char *Msg) { throw support::RuntimeTrap(Msg); }

/// Marks a decoded op whose site has not been looked up yet.
constexpr SiteId NoSite = ~SiteId(0);

uint64_t sext32(uint64_t V) {
  return static_cast<uint64_t>(static_cast<int64_t>(static_cast<int32_t>(V)));
}

double asF64(uint64_t Bits) {
  double D;
  __builtin_memcpy(&D, &Bits, 8);
  return D;
}

uint64_t bitsOf(double D) {
  uint64_t Bits;
  __builtin_memcpy(&Bits, &D, 8);
  return Bits;
}

} // namespace

/// One decoded operation. Operands are frame slot indices; which fields an
/// op reads depends on its code (see the MethodInfo constructor).
struct Interpreter::Op {
  enum Code : uint8_t {
    // Integer arithmetic in BinaryInst::BinOp order, per operand width.
    // i32 results are wrapped to 32 bits and sign-extended in the slot.
    AddI32, SubI32, MulI32, DivI32, RemI32,
    AndI32, OrI32, XorI32, ShlI32, ShrI32,
    AddI64, SubI64, MulI64, DivI64, RemI64,
    AndI64, OrI64, XorI64, ShlI64, ShrI64,
    // Integer and reference comparisons, in BinOp order.
    CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe,
    AddF64, SubF64, MulF64, DivF64,
    CmpEqF64, CmpNeF64, CmpLtF64, CmpLeF64, CmpGtF64, CmpGeF64,
    BadF64, ///< An integer-only operator applied to f64 operands.
    // Conversions, in ConvInst::ConvOp order.
    SExt32To64, Trunc64To32, IToF, FToI,
    GetField32, GetField64, PutField32, PutField64,
    GetStatic32, GetStatic64, PutStatic,
    ALoad32, ALoad64, AStore, ArrayLength,
    NewObject, NewArray, Call,
    Branch, Jump, Ret, RetVoid,
    Prefetch, SpecLoad,
    FellOff, ///< End of a block that has no terminator.
  };

  Code C = FellOff;
  bool Guarded = false; ///< Prefetch: the guarded-load flavor.
  uint16_t Owner = 0;   ///< Prefetch and SpecLoad: the code's owner.
  uint32_t Dst = 0;     ///< Result slot.
  /// Operand slots. Branch: A is the condition, B and X the true and false
  /// edges; Jump: B is the edge; Call: A and B delimit the argument slots
  /// in MethodInfo::ArgSlots; AStore: X is the stored value; Prefetch and
  /// SpecLoad: A is the base, B the index, X the scale.
  uint32_t A = 0, B = 0, X = 0;
  SiteId Site = NoSite; ///< Load site (prefetches: attribution site).
  int64_t Imm = 0;      ///< Field offset or address displacement.
  const Instruction *I = nullptr; ///< Source instruction.

  static_assert(ShrI32 - AddI32 ==
                        static_cast<unsigned>(BinaryInst::BinOp::Shr) &&
                    AddI64 - AddI32 == ShrI32 - AddI32 + 1 &&
                    CmpGe - CmpEq ==
                        static_cast<unsigned>(BinaryInst::BinOp::CmpGe) -
                            static_cast<unsigned>(BinaryInst::BinOp::CmpEq) &&
                    DivF64 - AddF64 ==
                        static_cast<unsigned>(BinaryInst::BinOp::Div) &&
                    CmpGeF64 - CmpEqF64 == CmpGe - CmpEq,
                "binary op codes must follow BinOp order");
  static_assert(FToI - SExt32To64 ==
                    static_cast<unsigned>(ConvInst::ConvOp::FToI),
                "conversion op codes must follow ConvOp order");
};

/// A method decoded for execution: ops laid out block by block, each block
/// ending in its terminator (or FellOff), and a frame template holding
/// the method's values, its constants and scratch slots.
struct Interpreter::MethodInfo {
  /// A CFG edge: the phi moves it performs, then the op to continue at.
  struct Edge {
    uint32_t Target = 0;
    uint32_t MovesBegin = 0, MovesEnd = 0;
  };
  struct Move {
    uint32_t Dst, Src;
  };

  /// Decodes \p M, leaving out the prefetch code of every owner that
  /// \p OwnerSinks routes nowhere. Reads the IR only.
  MethodInfo(const Method &M, const std::vector<AccessSink *> &OwnerSinks);

  std::vector<Op> Ops;
  std::vector<Edge> Edges;
  /// Phi moves of all edges, each edge's run already sequentialized.
  std::vector<Move> Moves;
  /// Call operands of all call ops, concatenated.
  std::vector<uint32_t> ArgSlots;
  /// Initial frame: arguments and instruction results (in program
  /// order, as Method::renumber numbers them), then constants, then
  /// scratch slots.
  std::vector<uint64_t> FrameTemplate;
  /// Slots of Ref-typed arguments and instructions: the frame's GC roots.
  std::vector<uint32_t> RefSlots;

private:
  uint32_t slotOf(const Value *V);
  uint32_t newSlot(uint64_t Init);
  uint32_t addEdge(const BasicBlock *Pred, const BasicBlock *Succ);
  void addMoves(std::vector<Move> Parallel);

  /// Slots of the arguments and instructions.
  std::unordered_map<const Value *, uint32_t> ValueSlots;
  std::unordered_map<const Constant *, uint32_t> ConstSlots;
  /// Parallel-copy cycle breaker; allocated on first use.
  uint32_t ScratchSlot = ~0u;
  /// Successor block of each edge, resolved to Edge::Target at the end.
  std::vector<const BasicBlock *> EdgeSuccs;
};

uint32_t Interpreter::MethodInfo::newSlot(uint64_t Init) {
  FrameTemplate.push_back(Init);
  return static_cast<uint32_t>(FrameTemplate.size() - 1);
}

uint32_t Interpreter::MethodInfo::slotOf(const Value *V) {
  const auto *C = dyn_cast<Constant>(V);
  if (!C)
    return ValueSlots.at(V);
  auto It = ConstSlots.find(C);
  if (It != ConstSlots.end())
    return It->second;
  uint32_t Slot = newSlot(C->raw());
  ConstSlots.emplace(C, Slot);
  return Slot;
}

void Interpreter::MethodInfo::addMoves(std::vector<Move> Parallel) {
  // Phis read all their inputs before any is written. Emit a move only
  // once no pending move still reads its destination; when only cycles
  // remain, save one destination in the scratch slot and redirect its
  // readers. The scratch slot is free again by the next cycle: the chain
  // reading it ends in a move nothing else reads, which must go first.
  std::erase_if(Parallel, [](const Move &Mv) { return Mv.Dst == Mv.Src; });
  while (!Parallel.empty()) {
    auto Ready = std::find_if(
        Parallel.begin(), Parallel.end(), [&](const Move &Mv) {
          return std::none_of(
              Parallel.begin(), Parallel.end(),
              [&](const Move &Other) { return Other.Src == Mv.Dst; });
        });
    if (Ready != Parallel.end()) {
      Moves.push_back(*Ready);
      Parallel.erase(Ready);
      continue;
    }
    if (ScratchSlot == ~0u)
      ScratchSlot = newSlot(0);
    uint32_t Saved = Parallel.front().Dst;
    Moves.push_back({ScratchSlot, Saved});
    for (Move &Mv : Parallel)
      if (Mv.Src == Saved)
        Mv.Src = ScratchSlot;
  }
}

uint32_t Interpreter::MethodInfo::addEdge(const BasicBlock *Pred,
                                          const BasicBlock *Succ) {
  assert(Succ && "branch to a null block");
  Edge E;
  E.MovesBegin = static_cast<uint32_t>(Moves.size());
  std::vector<Move> Parallel;
  if (Succ)
    for (const auto &IP : Succ->instructions()) {
      const auto *Phi = dyn_cast<PhiInst>(IP.get());
      if (!Phi)
        break;
      const Value *In = Phi->valueFor(Pred);
      assert(In && "phi has no incoming value for predecessor");
      if (In)
        Parallel.push_back({slotOf(Phi), slotOf(In)});
    }
  addMoves(std::move(Parallel));
  E.MovesEnd = static_cast<uint32_t>(Moves.size());
  Edges.push_back(E);
  EdgeSuccs.push_back(Succ);
  return static_cast<uint32_t>(Edges.size() - 1);
}

Interpreter::MethodInfo::MethodInfo(const Method &M,
                                    const std::vector<AccessSink *> &OwnerSinks) {
  // Arguments and instructions share one slot space, in program order.
  auto Number = [this](const Value *V) {
    uint32_t Slot = static_cast<uint32_t>(FrameTemplate.size());
    ValueSlots.emplace(V, Slot);
    FrameTemplate.push_back(0);
    if (V->type() == Type::Ref)
      RefSlots.push_back(Slot);
  };
  for (const auto &Arg : M.arguments())
    Number(Arg.get());
  for (const auto &BB : M.blocks())
    for (const auto &I : BB->instructions())
      Number(I.get());
  // The index of an address expression without one: 0 * scale adds 0.
  const uint32_t ZeroSlot = newSlot(0);

  std::unordered_map<const BasicBlock *, uint32_t> BlockStart;
  for (const auto &BB : M.blocks()) {
    BlockStart.emplace(BB.get(), static_cast<uint32_t>(Ops.size()));
    bool Terminated = false;
    for (const auto &IP : BB->instructions()) {
      const Instruction *I = IP.get();
      if (isa<PhiInst>(I))
        continue; // Lowered to moves on the incoming edges.
      if (const auto *AI = dyn_cast<AddressedInst>(I))
        if (AI->owner() &&
            (AI->owner() >= OwnerSinks.size() || !OwnerSinks[AI->owner()]))
          continue; // Code of an owner this execution does not simulate.
      Op O;
      O.I = I;
      O.Dst = ValueSlots.at(I);
      switch (I->opcode()) {
      case Opcode::Binary: {
        using BinOp = BinaryInst::BinOp;
        const auto *B = cast<BinaryInst>(I);
        unsigned K = static_cast<unsigned>(B->binOp());
        unsigned Cmp = K - static_cast<unsigned>(BinOp::CmpEq);
        Type Ty = B->lhs()->type();
        if (Ty == Type::F64)
          O.C = B->binOp() <= BinOp::Div ? Op::Code(Op::AddF64 + K)
                : B->isComparison()      ? Op::Code(Op::CmpEqF64 + Cmp)
                                         : Op::BadF64;
        else if (B->isComparison())
          O.C = Op::Code(Op::CmpEq + Cmp);
        else
          O.C = Op::Code((Ty == Type::I32 ? Op::AddI32 : Op::AddI64) + K);
        O.A = slotOf(B->lhs());
        O.B = slotOf(B->rhs());
        break;
      }
      case Opcode::Conv: {
        const auto *C = cast<ConvInst>(I);
        O.C = Op::Code(Op::SExt32To64 + static_cast<unsigned>(C->convOp()));
        O.A = slotOf(C->src());
        break;
      }
      case Opcode::GetField: {
        const auto *G = cast<GetFieldInst>(I);
        O.C = I->type() == Type::I32 ? Op::GetField32 : Op::GetField64;
        O.A = slotOf(G->object());
        O.Imm = G->field()->Offset;
        break;
      }
      case Opcode::PutField: {
        const auto *P = cast<PutFieldInst>(I);
        O.C = P->field()->Ty == Type::I32 ? Op::PutField32 : Op::PutField64;
        O.A = slotOf(P->object());
        O.B = slotOf(P->value());
        O.Imm = P->field()->Offset;
        break;
      }
      case Opcode::GetStatic:
        O.C = I->type() == Type::I32 ? Op::GetStatic32 : Op::GetStatic64;
        break;
      case Opcode::PutStatic:
        O.C = Op::PutStatic;
        O.A = slotOf(cast<PutStaticInst>(I)->value());
        break;
      case Opcode::ALoad: {
        const auto *AL = cast<ALoadInst>(I);
        O.C = I->type() == Type::I32 ? Op::ALoad32 : Op::ALoad64;
        O.A = slotOf(AL->array());
        O.B = slotOf(AL->index());
        break;
      }
      case Opcode::AStore: {
        const auto *AS = cast<AStoreInst>(I);
        O.C = Op::AStore;
        O.A = slotOf(AS->array());
        O.B = slotOf(AS->index());
        O.X = slotOf(AS->value());
        break;
      }
      case Opcode::ArrayLength:
        O.C = Op::ArrayLength;
        O.A = slotOf(cast<ArrayLengthInst>(I)->array());
        break;
      case Opcode::NewObject:
        O.C = Op::NewObject;
        break;
      case Opcode::NewArray:
        O.C = Op::NewArray;
        O.A = slotOf(cast<NewArrayInst>(I)->length());
        break;
      case Opcode::Call:
        O.C = Op::Call;
        O.A = static_cast<uint32_t>(ArgSlots.size());
        for (const Value *Arg : I->operands())
          ArgSlots.push_back(slotOf(Arg));
        O.B = static_cast<uint32_t>(ArgSlots.size());
        break;
      case Opcode::Phi:
        break; // Unreachable; skipped above.
      case Opcode::Branch: {
        const auto *B = cast<BranchInst>(I);
        O.C = Op::Branch;
        O.A = slotOf(B->condition());
        O.B = addEdge(BB.get(), B->trueSuccessor());
        O.X = addEdge(BB.get(), B->falseSuccessor());
        break;
      }
      case Opcode::Jump:
        O.C = Op::Jump;
        O.B = addEdge(BB.get(), cast<JumpInst>(I)->target());
        break;
      case Opcode::Ret: {
        const Value *V = cast<RetInst>(I)->value();
        O.C = V ? Op::Ret : Op::RetVoid;
        if (V)
          O.A = slotOf(V);
        break;
      }
      case Opcode::Prefetch:
      case Opcode::SpecLoad: {
        const auto *AI = cast<AddressedInst>(I);
        O.C = I->opcode() == Opcode::Prefetch ? Op::Prefetch : Op::SpecLoad;
        O.Owner = static_cast<uint16_t>(AI->owner());
        if (const auto *P = dyn_cast<PrefetchInst>(I))
          O.Guarded = P->isGuarded();
        O.A = slotOf(AI->base());
        O.B = AI->index() ? slotOf(AI->index()) : ZeroSlot;
        O.X = AI->scale();
        O.Imm = AI->displacement();
        break;
      }
      }
      Ops.push_back(O);
      if (I->isTerminator()) {
        Terminated = true;
        break;
      }
    }
    if (!Terminated)
      Ops.push_back(Op());
  }

  // Edges into blocks outside this method, and a method without blocks,
  // end at a final FellOff op: like a block without a terminator.
  const uint32_t Nowhere = static_cast<uint32_t>(Ops.size());
  Ops.push_back(Op());
  for (size_t K = 0, E = Edges.size(); K != E; ++K) {
    auto It = BlockStart.find(EdgeSuccs[K]);
    Edges[K].Target = It != BlockStart.end() ? It->second : Nowhere;
  }
}

void Interpreter::continueFrom(const Interpreter &Other) {
  assert(Governed == Other.Governed && Suppressed.empty() &&
         Other.Suppressed.empty() && !Other.MixedModeHook &&
         Other.ActiveFrames.empty() && "cannot continue this interpreter");
  assert(Owned.size() == Other.Owned.size() && "owner counts differ");
  Stats = Other.Stats;
  Owned = Other.Owned;
  LoadSites = Other.LoadSites;
  Gc = Other.Gc;
  MaxInstructions = Other.MaxInstructions;
  scheduleCheck();
}

void Interpreter::scheduleCheck() {
  NextCheck = MaxInstructions == ~uint64_t(0) ? MaxInstructions
                                              : MaxInstructions + 1;
}

void Interpreter::checkpoint() {
  if (Stats.Retired > MaxInstructions)
    trap("execution budget exceeded (runaway loop?)");
  scheduleCheck();
}

Interpreter::Interpreter(vm::Heap &Heap, AccessSink &Sink,
                         std::vector<vm::Addr> *ExternalRoots)
    : Heap(Heap), Sink(Sink), ExternalRoots(ExternalRoots),
      OwnerSinks{&Sink}, Owned(1) {
  scheduleCheck();
}

void Interpreter::setOwnerSinks(std::vector<AccessSink *> Sinks) {
  assert(Infos.empty() && "owners routed after decoding");
  OwnerSinks = std::move(Sinks);
  if (OwnerSinks.empty())
    OwnerSinks.push_back(nullptr);
  OwnerSinks.front() = &Sink;
  Owned.assign(OwnerSinks.size(), {});
}

ExecStats Interpreter::statsFor(unsigned Owner) const {
  ExecStats S = Stats;
  for (unsigned K = 1; K < Owned.size(); ++K)
    if (K != Owner) {
      S.Retired -= Owned[K].Retired;
      S.PrefetchRelated -= Owned[K].PrefetchRelated;
    }
  return S;
}

Interpreter::~Interpreter() = default;

SiteId Interpreter::siteOf(const ir::Instruction *I) {
  auto It = LoadSites.find(I);
  if (It != LoadSites.end())
    return It->second;
  SiteId Id = static_cast<SiteId>(LoadSites.size());
  LoadSites.emplace(I, Id);
  return Id;
}

void Interpreter::invalidateMethodInfo() {
  assert(ActiveFrames.empty() && "decoded methods dropped mid-run");
  Infos.clear();
}

Interpreter::MethodInfo &Interpreter::infoFor(Method *M) {
  std::unique_ptr<MethodInfo> &Info = Infos[M];
  if (!Info)
    Info = std::make_unique<MethodInfo>(*M, OwnerSinks);
  return *Info;
}

uint64_t Interpreter::run(Method *M, const std::vector<uint64_t> &Args) {
  // Compute left pending when the run ends — normally or by a trap —
  // reaches the sink before control returns to the caller.
  ScopeExit Flush{[this] {
    if (PendingTicks)
      Sink.tick(PendingTicks);
    PendingTicks = 0;
  }};
  return execute(M, Args);
}

void Interpreter::enableMixedMode(CompileHook Hook, unsigned Threshold,
                                  unsigned Penalty) {
  MixedModeHook = std::move(Hook);
  CompileThreshold = Threshold;
  InterpPenalty = Penalty;
}

void Interpreter::collectGarbage() {
  std::vector<vm::Addr *> Roots;
  if (ExternalRoots)
    for (vm::Addr &Handle : *ExternalRoots)
      Roots.push_back(&Handle);
  Roots.insert(Roots.end(), RootSlots.begin(), RootSlots.end());
  for (Frame *F : ActiveFrames)
    for (uint32_t Slot : F->Info->RefSlots)
      Roots.push_back(&F->Regs[Slot]);
  Gc.collect(Heap, Roots);
  ++Stats.GcRuns;
  PendingTicks += GcPauseTicks;
}

vm::Addr Interpreter::allocate(const Op &O, const uint64_t *Regs) {
  auto TryAlloc = [&]() -> vm::Addr {
    if (O.C == Op::NewObject)
      return Heap.allocObject(*cast<NewObjectInst>(O.I)->objectClass());
    int64_t Len = static_cast<int64_t>(Regs[O.A]);
    if (Len < 0)
      trap("negative array length");
    return Heap.allocArray(cast<NewArrayInst>(O.I)->elementType(),
                           static_cast<uint64_t>(Len));
  };

  vm::Addr A = TryAlloc();
  if (!A) {
    collectGarbage();
    A = TryAlloc();
    if (!A)
      trap("out of memory after garbage collection");
  }
  ++Stats.Allocations;
  PendingTicks += 4; // Bump allocation + zeroing fast path.
  return A;
}

uint64_t Interpreter::execute(Method *M, const std::vector<uint64_t> &Args) {
  if (M->isNative()) {
    ++Stats.Calls;
    return M->nativeImpl()(Args);
  }
  if (CallDepth >= 512)
    trap("call stack overflow in simulated program");
  ++CallDepth;
  ScopeExit DepthGuard{[this] { --CallDepth; }};

  // Mixed mode: hand hot methods to the JIT with the actual arguments of
  // the triggering invocation. The rewritten IR takes effect immediately
  // (on-stack replacement is not modeled: the *current* activation was
  // dispatched before the compile; in practice the hook runs at entry,
  // so this activation already executes the compiled code).
  bool Interpreted = false;
  if (MixedModeHook) {
    Interpreted = !CompiledMethods.count(M);
    if (Interpreted && ++InvocationCounts[M] >= CompileThreshold) {
      // Never rewrite a method with live activations (we do not model
      // on-stack replacement): a recursive caller's frame was laid out
      // for the old IR. Defer to the next clean invocation.
      bool OnStack = false;
      for (const Frame *Active : ActiveFrames)
        OnStack |= Active->M == M;
      if (!OnStack) {
        CompiledMethods.insert(M);
        Infos.erase(M); // The hook rewrites the IR; re-decode on next use.
        MixedModeHook(M, Args);
        Interpreted = false;
      }
    }
  }

  MethodInfo &Info = infoFor(M);
  Frame F;
  F.M = M;
  F.Info = &Info;
  F.Regs = Info.FrameTemplate;
  assert(Args.size() == M->numArgs() && "argument count mismatch");
  for (unsigned I = 0, E = M->numArgs(); I != E; ++I)
    F.Regs[I] = Args[I]; // Arguments are numbered first.

  ActiveFrames.push_back(&F);
  ScopeExit FrameGuard{[this] { ActiveFrames.pop_back(); }};

  // This activation's compute ticks accumulate in T, and the instructions
  // it retired since Stats.Retired was last brought up to date in Done.
  // Around calls (and, for T, allocation, which can charge ticks itself)
  // and on the way out, T is parked in PendingTicks and Done added to
  // Stats.Retired. Limit is the Done count at which checkpoint() is due.
  uint64_t T = PendingTicks;
  PendingTicks = 0;
  uint64_t Done = 0;
  auto untilCheck = [this] {
    return NextCheck > Stats.Retired ? NextCheck - Stats.Retired : 1;
  };
  uint64_t Limit = untilCheck();
  ScopeExit CountGuard{[&] {
    PendingTicks += T;
    Stats.Retired += Done;
  }};
  auto flushTicks = [&] {
    if (T) {
      Sink.tick(T);
      T = 0;
    }
  };

  uint64_t *R = F.Regs.data();
  Op *const Ops = Info.Ops.data();
  const MethodInfo::Edge *const Edges = Info.Edges.data();
  const MethodInfo::Move *const Moves = Info.Moves.data();
  const uint32_t *const ArgSlots = Info.ArgSlots.data();
  const uint64_t Penalty = Interpreted ? InterpPenalty : 0;
  std::vector<uint64_t> CallArgs;

  auto takeEdge = [&](uint32_t Index) {
    const MethodInfo::Edge &E = Edges[Index];
    for (uint32_t K = E.MovesBegin; K != E.MovesEnd; ++K)
      R[Moves[K].Dst] = R[Moves[K].Src];
    return Ops + E.Target;
  };
  auto siteFor = [&](Op &O) {
    if (O.Site == NoSite)
      O.Site = siteOf(O.I);
    return O.Site;
  };
  // A prefetch or spec load reports its anchor load's site (its own when
  // unanchored) in governor mode, and site 0 otherwise: ungoverned runs
  // assign prefetch ops no site, so site numbering stays pinned.
  auto prefetchSite = [&](Op &O) -> SiteId {
    if (!Governed)
      return 0;
    if (O.Site == NoSite) {
      const auto *AI = static_cast<const AddressedInst *>(O.I);
      O.Site = siteOf(AI->anchor() ? AI->anchor() : AI);
    }
    return O.Site;
  };
  auto suppressed = [&](SiteId Site) {
    return Site < Suppressed.size() && Suppressed[Site];
  };
  auto prefetchAddr = [&](const Op &O) -> vm::Addr {
    return R[O.A] + static_cast<uint64_t>(
                        O.Imm + static_cast<int64_t>(R[O.B]) *
                                    static_cast<int64_t>(O.X));
  };

// Integer binary ops: the i32 form wraps its result, the i64 form (also
// used for refs) does not; both retire one compute tick.
#define SPF_INT_BINOP(NAME, EXPR)                                              \
  case Op::NAME##I32: {                                                        \
    uint64_t L = R[O.A], Rhs = R[O.B];                                         \
    R[O.Dst] = sext32(EXPR);                                                   \
    T += 1;                                                                    \
    break;                                                                     \
  }                                                                            \
  case Op::NAME##I64: {                                                        \
    uint64_t L = R[O.A], Rhs = R[O.B];                                         \
    R[O.Dst] = EXPR;                                                           \
    T += 1;                                                                    \
    break;                                                                     \
  }
#define SPF_CMP(NAME, LTYPE, EXPR)                                             \
  case Op::NAME: {                                                             \
    LTYPE L = static_cast<LTYPE>(R[O.A]), Rhs = static_cast<LTYPE>(R[O.B]);    \
    R[O.Dst] = (EXPR);                                                         \
    T += 1;                                                                    \
    break;                                                                     \
  }
#define SPF_F64_OP(NAME, EXPR)                                                 \
  case Op::NAME: {                                                             \
    double L = asF64(R[O.A]), Rhs = asF64(R[O.B]);                             \
    R[O.Dst] = (EXPR);                                                         \
    T += 1;                                                                    \
    break;                                                                     \
  }

  for (Op *P = Ops;;) {
    Op &O = *P++;
    if (O.C == Op::FellOff)
      trap("fell off the end of a block without a terminator");
    if (++Done == Limit) {
      Stats.Retired += Done;
      Done = 0;
      checkpoint();
      Limit = untilCheck();
    }
    T += Penalty; // Bytecode dispatch overhead.

    switch (O.C) {
    SPF_INT_BINOP(Add, L + Rhs)
    SPF_INT_BINOP(Sub, L - Rhs)
    SPF_INT_BINOP(Mul, L * Rhs)
    SPF_INT_BINOP(And, L & Rhs)
    SPF_INT_BINOP(Or, L | Rhs)
    SPF_INT_BINOP(Xor, L ^ Rhs)
    SPF_INT_BINOP(Shl, L << (Rhs & 63))
    SPF_INT_BINOP(Shr, static_cast<uint64_t>(static_cast<int64_t>(L) >>
                                             (Rhs & 63)))
    case Op::DivI32:
    case Op::DivI64:
    case Op::RemI32:
    case Op::RemI64: {
      int64_t L = static_cast<int64_t>(R[O.A]);
      int64_t Rhs = static_cast<int64_t>(R[O.B]);
      bool IsDiv = O.C == Op::DivI32 || O.C == Op::DivI64;
      if (Rhs == 0)
        trap(IsDiv ? "integer division by zero"
                   : "integer remainder by zero");
      uint64_t V = static_cast<uint64_t>(IsDiv ? L / Rhs : L % Rhs);
      R[O.Dst] = O.C == Op::DivI32 || O.C == Op::RemI32 ? sext32(V) : V;
      T += 1;
      break;
    }
    SPF_CMP(CmpEq, uint64_t, L == Rhs)
    SPF_CMP(CmpNe, uint64_t, L != Rhs)
    SPF_CMP(CmpLt, int64_t, L < Rhs)
    SPF_CMP(CmpLe, int64_t, L <= Rhs)
    SPF_CMP(CmpGt, int64_t, L > Rhs)
    SPF_CMP(CmpGe, int64_t, L >= Rhs)
    SPF_F64_OP(AddF64, bitsOf(L + Rhs))
    SPF_F64_OP(SubF64, bitsOf(L - Rhs))
    SPF_F64_OP(MulF64, bitsOf(L * Rhs))
    SPF_F64_OP(DivF64, bitsOf(L / Rhs))
    SPF_F64_OP(CmpEqF64, L == Rhs)
    SPF_F64_OP(CmpNeF64, L != Rhs)
    SPF_F64_OP(CmpLtF64, L < Rhs)
    SPF_F64_OP(CmpLeF64, L <= Rhs)
    SPF_F64_OP(CmpGtF64, L > Rhs)
    SPF_F64_OP(CmpGeF64, L >= Rhs)
    case Op::BadF64:
      trap("invalid f64 binary op");
    case Op::SExt32To64:
      R[O.Dst] = R[O.A];
      T += 1;
      break;
    case Op::Trunc64To32:
      R[O.Dst] = sext32(R[O.A]);
      T += 1;
      break;
    case Op::IToF:
      R[O.Dst] = bitsOf(static_cast<double>(static_cast<int64_t>(R[O.A])));
      T += 1;
      break;
    case Op::FToI:
      R[O.Dst] = static_cast<uint64_t>(
          static_cast<int64_t>(static_cast<int32_t>(asF64(R[O.A]))));
      T += 1;
      break;
    case Op::GetField32:
    case Op::GetField64: {
      vm::Addr Obj = R[O.A];
      if (!Obj)
        trap("null pointer in getfield");
      vm::Addr A = Obj + static_cast<uint64_t>(O.Imm);
      SiteId Site = siteFor(O);
      flushTicks();
      Sink.load(A, Site);
      R[O.Dst] =
          Heap.load(A, O.C == Op::GetField32 ? Type::I32 : Type::I64);
      break;
    }
    case Op::PutField32:
    case Op::PutField64: {
      vm::Addr Obj = R[O.A];
      if (!Obj)
        trap("null pointer in putfield");
      vm::Addr A = Obj + static_cast<uint64_t>(O.Imm);
      flushTicks();
      Sink.store(A);
      Heap.store(A, O.C == Op::PutField32 ? Type::I32 : Type::I64, R[O.B]);
      break;
    }
    case Op::GetStatic32:
    case Op::GetStatic64: {
      vm::Addr A = cast<GetStaticInst>(O.I)->variable()->Address;
      SiteId Site = siteFor(O);
      flushTicks();
      Sink.load(A, Site);
      R[O.Dst] =
          Heap.load(A, O.C == Op::GetStatic32 ? Type::I32 : Type::I64);
      break;
    }
    case Op::PutStatic: {
      const StaticVarDesc *Var = cast<PutStaticInst>(O.I)->variable();
      flushTicks();
      Sink.store(Var->Address);
      Heap.store(Var->Address, Var->Ty, R[O.A]);
      break;
    }
    case Op::ALoad32:
    case Op::ALoad64: {
      vm::Addr Arr = R[O.A];
      if (!Arr)
        trap("null pointer in aload");
      int64_t Idx = static_cast<int64_t>(R[O.B]);
      assert(Idx >= 0 &&
             static_cast<uint64_t>(Idx) < Heap.arrayLength(Arr) &&
             "array index out of bounds");
      vm::Addr A = Heap.elemAddr(Arr, static_cast<uint64_t>(Idx));
      SiteId Site = siteFor(O);
      flushTicks();
      Sink.load(A, Site);
      R[O.Dst] = Heap.load(A, O.C == Op::ALoad32 ? Type::I32 : Type::I64);
      break;
    }
    case Op::AStore: {
      vm::Addr Arr = R[O.A];
      if (!Arr)
        trap("null pointer in astore");
      int64_t Idx = static_cast<int64_t>(R[O.B]);
      assert(Idx >= 0 &&
             static_cast<uint64_t>(Idx) < Heap.arrayLength(Arr) &&
             "array index out of bounds");
      vm::Addr A = Heap.elemAddr(Arr, static_cast<uint64_t>(Idx));
      flushTicks();
      Sink.store(A);
      Heap.store(A, Heap.arrayElemType(Arr), R[O.X]);
      break;
    }
    case Op::ArrayLength: {
      vm::Addr Arr = R[O.A];
      if (!Arr)
        trap("null pointer in arraylength");
      SiteId Site = siteFor(O);
      flushTicks();
      Sink.load(Arr + vm::ArrayLengthOffset, Site);
      R[O.Dst] =
          static_cast<uint64_t>(static_cast<int64_t>(Heap.arrayLength(Arr)));
      break;
    }
    case Op::NewObject:
    case Op::NewArray:
      // A collection charges its pause through PendingTicks.
      PendingTicks += T;
      T = 0;
      R[O.Dst] = allocate(O, R);
      T = PendingTicks;
      PendingTicks = 0;
      break;
    case Op::Call: {
      Method *Callee = cast<CallInst>(O.I)->callee();
      if (!Callee)
        trap("call to unresolved method");
      CallArgs.clear();
      for (uint32_t K = O.A; K != O.B; ++K)
        CallArgs.push_back(R[ArgSlots[K]]);
      T += 5; // Call/return overhead.
      ++Stats.Calls;
      PendingTicks += T;
      T = 0;
      Stats.Retired += Done;
      Done = 0;
      uint64_t Result = execute(Callee, CallArgs);
      T = PendingTicks;
      PendingTicks = 0;
      Limit = untilCheck();
      if (O.I->type() != Type::Void)
        R[O.Dst] = Result;
      break;
    }
    case Op::Branch:
      T += 1;
      P = takeEdge(R[O.A] ? O.B : O.X);
      break;
    case Op::Jump:
      T += 1;
      P = takeEdge(O.B);
      break;
    case Op::Ret:
      return R[O.A]; // Frame, ticks and depth unwound by the scope guards.
    case Op::RetVoid:
      return 0;
    case Op::Prefetch: {
      // A quarantined site's prefetch is a nop (modeling the JIT patching
      // it out) — zero cost, zero events.
      SiteId Site = prefetchSite(O);
      ++Owned[O.Owner].Retired;
      if (suppressed(Site))
        break;
      ++Stats.PrefetchRelated;
      ++Owned[O.Owner].PrefetchRelated;
      vm::Addr A = prefetchAddr(O);
      flushTicks();
      // A guarded prefetch's software exception check only touches mapped
      // memory. A failed check takes the recovery branch — no cache or
      // TLB fill.
      AccessSink &To = *OwnerSinks[O.Owner];
      if (!O.Guarded)
        To.prefetch(A, Site);
      else if (Heap.isValidAccess(A, 8))
        To.guardedLoad(A, Site);
      else
        To.guardedLoadFault(Site);
      break;
    }
    case Op::SpecLoad: {
      SiteId Site = prefetchSite(O);
      ++Owned[O.Owner].Retired;
      if (suppressed(Site)) {
        // The chain's prefetches share this site and are suppressed with
        // it; a null result keeps the dataflow well-defined.
        R[O.Dst] = 0;
        break;
      }
      ++Stats.PrefetchRelated;
      ++Owned[O.Owner].PrefetchRelated;
      vm::Addr A = prefetchAddr(O);
      flushTicks();
      AccessSink &To = *OwnerSinks[O.Owner];
      if (Heap.isValidAccess(A, 8)) {
        To.guardedLoad(A, Site);
        R[O.Dst] = Heap.load(A, Type::Ref);
      } else {
        To.guardedLoadFault(Site);
        R[O.Dst] = 0;
      }
      break;
    }
    case Op::FellOff:
      break; // Unreachable; trapped above.
    }
  }
#undef SPF_INT_BINOP
#undef SPF_CMP
#undef SPF_F64_OP
}
