//===- ir/IRPrinter.cpp ---------------------------------------------------===//

#include "ir/IRPrinter.h"

#include "support/ErrorHandling.h"

#include <sstream>

using namespace spf;
using namespace spf::ir;

std::string ir::valueName(const Value *V) {
  if (const auto *C = dyn_cast<Constant>(V)) {
    std::ostringstream OS;
    if (C->type() == Type::Ref) {
      OS << (C->isNullRef() ? "null" : "ref") << ":" << std::hex << C->raw();
    } else if (C->type() == Type::F64) {
      OS.precision(17); // Round-trippable through the parser.
      OS << C->floatValue();
    } else {
      OS << C->intValue();
    }
    return OS.str();
  }
  std::ostringstream OS;
  if (isa<Argument>(V))
    OS << "%arg" << cast<Argument>(V)->index();
  else
    OS << "%" << V->id();
  if (!V->name().empty())
    OS << "." << V->name();
  return OS.str();
}

static void printAddress(std::ostream &OS, const AddressedInst *A) {
  OS << "[" << valueName(A->base());
  if (A->index())
    OS << " + " << valueName(A->index()) << "*" << A->scale();
  if (A->displacement() >= 0)
    OS << " + " << A->displacement();
  else
    OS << " - " << -A->displacement();
  OS << "]";
}

void ir::printInstruction(std::ostream &OS, const Instruction *I) {
  if (I->type() != Type::Void)
    OS << valueName(I) << " = ";

  switch (I->opcode()) {
  case Opcode::Binary: {
    const auto *B = cast<BinaryInst>(I);
    OS << BinaryInst::binOpName(B->binOp()) << " " << typeName(B->lhs()->type())
       << " " << valueName(B->lhs()) << ", " << valueName(B->rhs());
    return;
  }
  case Opcode::Conv:
    OS << "conv " << valueName(cast<ConvInst>(I)->src()) << " to "
       << typeName(I->type());
    return;
  case Opcode::GetField: {
    const auto *G = cast<GetFieldInst>(I);
    OS << "getfield " << valueName(G->object()) << "."
       << G->field()->Parent->name() << "::" << G->field()->Name << " (+"
       << G->field()->Offset << ")";
    return;
  }
  case Opcode::PutField: {
    const auto *P = cast<PutFieldInst>(I);
    OS << "putfield " << valueName(P->object()) << "."
       << P->field()->Parent->name() << "::" << P->field()->Name << " = "
       << valueName(P->value());
    return;
  }
  case Opcode::GetStatic:
    OS << "getstatic " << cast<GetStaticInst>(I)->variable()->Name;
    return;
  case Opcode::PutStatic: {
    const auto *P = cast<PutStaticInst>(I);
    OS << "putstatic " << P->variable()->Name << " = " << valueName(P->value());
    return;
  }
  case Opcode::ALoad: {
    const auto *A = cast<ALoadInst>(I);
    OS << "aload." << typeName(A->type()) << " " << valueName(A->array())
       << "[" << valueName(A->index()) << "]";
    return;
  }
  case Opcode::AStore: {
    const auto *A = cast<AStoreInst>(I);
    OS << "astore " << valueName(A->array()) << "[" << valueName(A->index())
       << "] = " << valueName(A->value());
    return;
  }
  case Opcode::ArrayLength:
    OS << "arraylength " << valueName(cast<ArrayLengthInst>(I)->array());
    return;
  case Opcode::NewObject:
    OS << "new " << cast<NewObjectInst>(I)->objectClass()->name();
    return;
  case Opcode::NewArray: {
    const auto *N = cast<NewArrayInst>(I);
    OS << "newarray " << typeName(N->elementType()) << "["
       << valueName(N->length()) << "]";
    return;
  }
  case Opcode::Call: {
    const auto *C = cast<CallInst>(I);
    OS << (C->isVirtual() ? "callvirt " : "call ")
       << (C->callee() ? C->callee()->name() : std::string("<unknown>"))
       << "(";
    for (unsigned Idx = 0, E = C->numOperands(); Idx != E; ++Idx) {
      if (Idx)
        OS << ", ";
      OS << valueName(C->operand(Idx));
    }
    OS << ")";
    return;
  }
  case Opcode::Phi: {
    const auto *P = cast<PhiInst>(I);
    OS << "phi " << typeName(P->type());
    for (unsigned Idx = 0, E = P->numIncoming(); Idx != E; ++Idx)
      OS << (Idx ? ", " : " ") << "[" << P->incomingBlock(Idx)->name() << ": "
         << valueName(P->incomingValue(Idx)) << "]";
    return;
  }
  case Opcode::Branch: {
    const auto *B = cast<BranchInst>(I);
    OS << "br " << valueName(B->condition()) << " ? "
       << B->trueSuccessor()->name() << " : " << B->falseSuccessor()->name();
    return;
  }
  case Opcode::Jump:
    OS << "jump " << cast<JumpInst>(I)->target()->name();
    return;
  case Opcode::Ret: {
    const auto *R = cast<RetInst>(I);
    OS << "ret";
    if (R->value())
      OS << " " << valueName(R->value());
    return;
  }
  case Opcode::Prefetch: {
    const auto *P = cast<PrefetchInst>(I);
    OS << (P->isGuarded() ? "prefetch.guarded " : "prefetch ");
    printAddress(OS, P);
    return;
  }
  case Opcode::SpecLoad:
    OS << "spec_load ";
    printAddress(OS, cast<SpecLoadInst>(I));
    return;
  }
  spf_unreachable("unknown opcode in printer");
}

void ir::printMethod(std::ostream &OS, Method *M) {
  M->renumber();
  OS << "method " << typeName(M->returnType()) << " " << M->name() << "(";
  for (unsigned I = 0, E = M->numArgs(); I != E; ++I) {
    if (I)
      OS << ", ";
    OS << typeName(M->arg(I)->type()) << " %arg" << I;
    if (!M->arg(I)->name().empty())
      OS << "." << M->arg(I)->name();
  }
  OS << ") {\n";
  for (const auto &BB : M->blocks()) {
    OS << BB->name() << ":";
    if (!BB->predecessors().empty()) {
      OS << "  ; preds:";
      for (const BasicBlock *P : BB->predecessors())
        OS << " " << P->name();
    }
    OS << "\n";
    for (const auto &I : BB->instructions()) {
      OS << "  ";
      printInstruction(OS, I.get());
      OS << "\n";
    }
  }
  OS << "}\n";
}
