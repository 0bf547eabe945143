//===- ir/IRPrinter.h - Textual IR dumps ------------------------*- C++ -*-===//
///
/// \file
/// Prints methods and instructions in a readable textual form. Used by the
/// examples, the Table 1 / Figure 4-5 harness, and test diagnostics.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_IR_IRPRINTER_H
#define SPF_IR_IRPRINTER_H

#include "ir/Method.h"

#include <ostream>
#include <string>

namespace spf {
namespace ir {

/// Returns a short printable spelling of an operand (%id, constant, arg).
std::string valueName(const Value *V);

/// Prints one instruction (no trailing newline).
void printInstruction(std::ostream &OS, const Instruction *I);

/// Prints the whole method: signature, blocks, instructions.
void printMethod(std::ostream &OS, Method *M);

} // namespace ir
} // namespace spf

#endif // SPF_IR_IRPRINTER_H
