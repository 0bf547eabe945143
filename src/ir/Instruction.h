//===- ir/Instruction.h - IR instruction hierarchy --------------*- C++ -*-===//
///
/// \file
/// The instruction set of the JIT IR. It mirrors the Java-bytecode load
/// taxonomy the paper's algorithm inspects (`getfield`, `getstatic`,
/// `aaload`/`iaload`/`daload`, `arraylength`) plus ordinary arithmetic,
/// control flow, allocation, calls, and the two prefetching primitives the
/// paper assumes (`prefetch` and `spec_load`, Section 3.3).
///
//===----------------------------------------------------------------------===//

#ifndef SPF_IR_INSTRUCTION_H
#define SPF_IR_INSTRUCTION_H

#include "ir/Value.h"
#include "support/Casting.h"
#include "vm/TypeTable.h"

#include <cassert>
#include <vector>

namespace spf {
namespace ir {

class BasicBlock;
class Method;
class Module;

/// Discriminates concrete Instruction subclasses.
enum class Opcode : uint8_t {
  Binary,
  Conv,
  GetField,
  PutField,
  GetStatic,
  PutStatic,
  ALoad,
  AStore,
  ArrayLength,
  NewObject,
  NewArray,
  Call,
  Phi,
  Branch,
  Jump,
  Ret,
  Prefetch,
  SpecLoad,
};

/// Returns a printable mnemonic for \p Op.
const char *opcodeName(Opcode Op);

/// Base class of all instructions.
class Instruction : public Value {
public:
  Opcode opcode() const { return Op; }

  BasicBlock *parent() const { return Parent; }
  void setParent(BasicBlock *BB) { Parent = BB; }

  unsigned numOperands() const { return Operands.size(); }

  Value *operand(unsigned I) const {
    assert(I < Operands.size() && "operand index out of range");
    return Operands[I];
  }

  void setOperand(unsigned I, Value *V) {
    assert(I < Operands.size() && "operand index out of range");
    Operands[I] = V;
  }

  const std::vector<Value *> &operands() const { return Operands; }

  /// Returns true for control-flow terminators (Branch, Jump, Ret).
  bool isTerminator() const {
    return Op == Opcode::Branch || Op == Opcode::Jump || Op == Opcode::Ret;
  }

  /// Returns true for instructions that read memory through a reference:
  /// the candidate nodes of a load dependence graph (Section 3.1).
  bool isHeapLoad() const {
    return Op == Opcode::GetField || Op == Opcode::GetStatic ||
           Op == Opcode::ALoad || Op == Opcode::ArrayLength;
  }

  /// Returns true if the instruction has observable side effects and must
  /// not be removed by DCE.
  bool hasSideEffects() const;

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::Instruction;
  }

protected:
  Instruction(Opcode Op, Type Ty) : Value(ValueKind::Instruction, Ty),
                                    Op(Op) {}

  void addOperand(Value *V) { Operands.push_back(V); }

private:
  Opcode Op;
  BasicBlock *Parent = nullptr;
  std::vector<Value *> Operands;
};

/// Integer/float arithmetic, logic, shifts, and comparisons.
class BinaryInst : public Instruction {
public:
  enum class BinOp : uint8_t {
    Add, Sub, Mul, Div, Rem,
    And, Or, Xor, Shl, Shr,
    CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe,
  };

  BinaryInst(BinOp Op, Type Ty, Value *Lhs, Value *Rhs)
      : Instruction(Opcode::Binary, Ty), Op(Op) {
    addOperand(Lhs);
    addOperand(Rhs);
  }

  BinOp binOp() const { return Op; }
  Value *lhs() const { return operand(0); }
  Value *rhs() const { return operand(1); }

  bool isComparison() const { return Op >= BinOp::CmpEq; }

  static const char *binOpName(BinOp Op);

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && I->opcode() == Opcode::Binary;
  }

private:
  BinOp Op;
};

/// Numeric conversions between the slot types.
class ConvInst : public Instruction {
public:
  enum class ConvOp : uint8_t { SExt32To64, Trunc64To32, IToF, FToI };

  ConvInst(ConvOp Op, Type Ty, Value *Src)
      : Instruction(Opcode::Conv, Ty), Op(Op) {
    addOperand(Src);
  }

  ConvOp convOp() const { return Op; }
  Value *src() const { return operand(0); }

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && I->opcode() == Opcode::Conv;
  }

private:
  ConvOp Op;
};

/// Loads an instance field: `getfield` in bytecode terms.
class GetFieldInst : public Instruction {
public:
  GetFieldInst(Value *Object, const vm::FieldDesc *Field)
      : Instruction(Opcode::GetField, Field->Ty), Field(Field) {
    assert(Object->type() == Type::Ref && "getfield base must be a ref");
    addOperand(Object);
  }

  Value *object() const { return operand(0); }
  const vm::FieldDesc *field() const { return Field; }

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && I->opcode() == Opcode::GetField;
  }

private:
  const vm::FieldDesc *Field;
};

/// Stores an instance field: `putfield`.
class PutFieldInst : public Instruction {
public:
  PutFieldInst(Value *Object, const vm::FieldDesc *Field, Value *Val)
      : Instruction(Opcode::PutField, Type::Void), Field(Field) {
    assert(Object->type() == Type::Ref && "putfield base must be a ref");
    addOperand(Object);
    addOperand(Val);
  }

  Value *object() const { return operand(0); }
  Value *value() const { return operand(1); }
  const vm::FieldDesc *field() const { return Field; }

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && I->opcode() == Opcode::PutField;
  }

private:
  const vm::FieldDesc *Field;
};

/// Describes a static (class) variable; owned by the Module. The address
/// is assigned when the workload maps its statics into the simulated heap.
struct StaticVarDesc {
  std::string Name;
  Type Ty = Type::I32;
  vm::Addr Address = 0;
};

/// Loads a static variable: `getstatic`.
class GetStaticInst : public Instruction {
public:
  explicit GetStaticInst(const StaticVarDesc *Var)
      : Instruction(Opcode::GetStatic, Var->Ty), Var(Var) {}

  const StaticVarDesc *variable() const { return Var; }

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && I->opcode() == Opcode::GetStatic;
  }

private:
  const StaticVarDesc *Var;
};

/// Stores a static variable: `putstatic`.
class PutStaticInst : public Instruction {
public:
  PutStaticInst(const StaticVarDesc *Var, Value *Val)
      : Instruction(Opcode::PutStatic, Type::Void), Var(Var) {
    addOperand(Val);
  }

  const StaticVarDesc *variable() const { return Var; }
  Value *value() const { return operand(0); }

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && I->opcode() == Opcode::PutStatic;
  }

private:
  const StaticVarDesc *Var;
};

/// Loads an array element: `aaload` / `iaload` / `daload` depending on the
/// element type.
class ALoadInst : public Instruction {
public:
  ALoadInst(Value *Array, Value *Index, Type ElemTy)
      : Instruction(Opcode::ALoad, ElemTy) {
    assert(Array->type() == Type::Ref && "aload base must be a ref");
    assert(Index->type() == Type::I32 && "array index must be i32");
    addOperand(Array);
    addOperand(Index);
  }

  Value *array() const { return operand(0); }
  Value *index() const { return operand(1); }

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && I->opcode() == Opcode::ALoad;
  }
};

/// Stores an array element.
class AStoreInst : public Instruction {
public:
  AStoreInst(Value *Array, Value *Index, Value *Val)
      : Instruction(Opcode::AStore, Type::Void) {
    assert(Array->type() == Type::Ref && "astore base must be a ref");
    assert(Index->type() == Type::I32 && "array index must be i32");
    addOperand(Array);
    addOperand(Index);
    addOperand(Val);
  }

  Value *array() const { return operand(0); }
  Value *index() const { return operand(1); }
  Value *value() const { return operand(2); }

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && I->opcode() == Opcode::AStore;
  }
};

/// Loads the length word from an array header: `arraylength`. Generated
/// implicitly for bound checks, hence a load-dependence-graph node.
class ArrayLengthInst : public Instruction {
public:
  explicit ArrayLengthInst(Value *Array)
      : Instruction(Opcode::ArrayLength, Type::I32) {
    assert(Array->type() == Type::Ref && "arraylength base must be a ref");
    addOperand(Array);
  }

  Value *array() const { return operand(0); }

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && I->opcode() == Opcode::ArrayLength;
  }
};

/// Allocates an instance of a class. The interpreter bump-allocates and
/// may trigger a garbage collection.
class NewObjectInst : public Instruction {
public:
  explicit NewObjectInst(const vm::ClassDesc *Cls)
      : Instruction(Opcode::NewObject, Type::Ref), Cls(Cls) {}

  const vm::ClassDesc *objectClass() const { return Cls; }

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && I->opcode() == Opcode::NewObject;
  }

private:
  const vm::ClassDesc *Cls;
};

/// Allocates an array of a primitive or reference element type.
class NewArrayInst : public Instruction {
public:
  NewArrayInst(Type ElemTy, Value *Length)
      : Instruction(Opcode::NewArray, Type::Ref), ElemTy(ElemTy) {
    assert(Length->type() == Type::I32 && "array length must be i32");
    addOperand(Length);
  }

  Type elementType() const { return ElemTy; }
  Value *length() const { return operand(0); }

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && I->opcode() == Opcode::NewArray;
  }

private:
  Type ElemTy;
};

/// A (possibly virtual) method invocation. Object inspection skips calls
/// and treats their results as unknown (Section 3.2).
class CallInst : public Instruction {
public:
  CallInst(Method *Callee, Type RetTy, std::vector<Value *> Args,
           bool IsVirtual)
      : Instruction(Opcode::Call, RetTy), Callee(Callee),
        IsVirtual(IsVirtual) {
    for (Value *A : Args)
      addOperand(A);
  }

  Method *callee() const { return Callee; }
  bool isVirtual() const { return IsVirtual; }

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && I->opcode() == Opcode::Call;
  }

private:
  Method *Callee;
  bool IsVirtual;
};

/// SSA phi node. Incoming blocks parallel the operand list.
class PhiInst : public Instruction {
public:
  explicit PhiInst(Type Ty) : Instruction(Opcode::Phi, Ty) {}

  void addIncoming(BasicBlock *Pred, Value *V) {
    addOperand(V);
    Blocks.push_back(Pred);
  }

  unsigned numIncoming() const { return Blocks.size(); }
  BasicBlock *incomingBlock(unsigned I) const { return Blocks[I]; }
  Value *incomingValue(unsigned I) const { return operand(I); }

  /// Returns the value flowing in from \p Pred, or null.
  Value *valueFor(const BasicBlock *Pred) const {
    for (unsigned I = 0, E = Blocks.size(); I != E; ++I)
      if (Blocks[I] == Pred)
        return operand(I);
    return nullptr;
  }

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && I->opcode() == Opcode::Phi;
  }

private:
  std::vector<BasicBlock *> Blocks;
};

/// Two-way conditional branch; the condition is an i32 (0 = false).
class BranchInst : public Instruction {
public:
  BranchInst(Value *Cond, BasicBlock *TrueBB, BasicBlock *FalseBB)
      : Instruction(Opcode::Branch, Type::Void), TrueBB(TrueBB),
        FalseBB(FalseBB) {
    assert(Cond->type() == Type::I32 && "branch condition must be i32");
    addOperand(Cond);
  }

  Value *condition() const { return operand(0); }
  BasicBlock *trueSuccessor() const { return TrueBB; }
  BasicBlock *falseSuccessor() const { return FalseBB; }

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && I->opcode() == Opcode::Branch;
  }

private:
  BasicBlock *TrueBB;
  BasicBlock *FalseBB;
};

/// Unconditional jump.
class JumpInst : public Instruction {
public:
  explicit JumpInst(BasicBlock *Target)
      : Instruction(Opcode::Jump, Type::Void), Target(Target) {}

  BasicBlock *target() const { return Target; }

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && I->opcode() == Opcode::Jump;
  }

private:
  BasicBlock *Target;
};

/// Method return, with an optional value.
class RetInst : public Instruction {
public:
  explicit RetInst(Value *Val) : Instruction(Opcode::Ret, Type::Void) {
    if (Val)
      addOperand(Val);
  }

  Value *value() const { return numOperands() ? operand(0) : nullptr; }

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && I->opcode() == Opcode::Ret;
  }
};

/// x86-style address expression shared by Prefetch and SpecLoad:
/// `base + index * scale + disp`, where `index` may be absent.
/// For a `getfield` anchor the address is `obj + offset + d*c`; for an
/// `aaload` anchor it is `arr + header + i*elemsize + d*c`.
class AddressedInst : public Instruction {
public:
  Value *base() const { return operand(0); }
  Value *index() const { return HasIndex ? operand(1) : nullptr; }
  unsigned scale() const { return Scale; }
  int64_t displacement() const { return Disp; }

  /// The demand load this prefetch code was derived from. Its SiteId is
  /// the site the runtime attributes the issue to (and the unit the
  /// prefetch-health governor re-decides) — the anchor always executes
  /// before the prefetch inserted after it, so its site is assigned
  /// first. Null for hand-built instructions: attribution then falls
  /// back to the prefetch instruction itself.
  const Instruction *anchor() const { return Anchor; }
  void setAnchor(const Instruction *A) { Anchor = A; }

  /// Which code owns this instruction in a shared execution's union
  /// program (workloads::buildSharedWorld): 0, the default, executes in
  /// every run; K > 0 executes only for the simulators of owner K, the
  /// members whose prefetch pass inserted it (exec::Interpreter).
  unsigned owner() const { return Owner; }
  void setOwner(unsigned K) { Owner = K; }

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && (I->opcode() == Opcode::Prefetch ||
                 I->opcode() == Opcode::SpecLoad);
  }

protected:
  AddressedInst(Opcode Op, Type Ty, Value *Base, Value *Index, unsigned Scale,
                int64_t Disp)
      : Instruction(Op, Ty), Scale(Scale), Disp(Disp), HasIndex(Index) {
    assert(Base->type() == Type::Ref && "address base must be a ref");
    addOperand(Base);
    if (Index) {
      assert(Index->type() == Type::I32 && "address index must be i32");
      addOperand(Index);
    }
  }

private:
  unsigned Scale;
  int64_t Disp;
  bool HasIndex;
  unsigned Owner = 0;
  const Instruction *Anchor = nullptr;
};

/// A software prefetch of the cache line at the computed address.
///
/// Plain prefetches map to the hardware `prefetch` instruction: they cost
/// almost nothing and are cancelled on a DTLB miss. Guarded prefetches map
/// to a load guarded by a software exception check: they perform a real
/// access, filling the DTLB (TLB priming, used for intra-iteration
/// prefetching on the Pentium 4 per Section 4).
class PrefetchInst : public AddressedInst {
public:
  PrefetchInst(Value *Base, Value *Index, unsigned Scale, int64_t Disp,
               bool Guarded)
      : AddressedInst(Opcode::Prefetch, Type::Void, Base, Index, Scale, Disp),
        Guarded(Guarded) {}

  bool isGuarded() const { return Guarded; }

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && I->opcode() == Opcode::Prefetch;
  }

private:
  bool Guarded;
};

/// A speculative (guarded) load of a reference from the computed address;
/// yields null instead of faulting when the address is invalid. Realized
/// on IA-32 as an ordinary load guarded by a software exception check
/// (Section 3.3, "Mapping to Hardware Instructions").
class SpecLoadInst : public AddressedInst {
public:
  SpecLoadInst(Value *Base, Value *Index, unsigned Scale, int64_t Disp)
      : AddressedInst(Opcode::SpecLoad, Type::Ref, Base, Index, Scale, Disp) {}

  static bool classof(const Value *V) {
    auto *I = dyn_cast<Instruction>(V);
    return I && I->opcode() == Opcode::SpecLoad;
  }
};

} // namespace ir
} // namespace spf

#endif // SPF_IR_INSTRUCTION_H
