//===- ir/IRPrinter.h - Textual IR dumps ------------------------*- C++ -*-===//
///
/// \file
/// Prints methods and instructions in a readable textual form. Used by the
/// examples, the Table 1 / Figure 4-5 harness, and test diagnostics.
/// hashMethod is the printer's structural twin: it hashes what
/// printMethod prints without building the text.
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

/// A 64-bit structural hash of \p M, mixed into \p Seed: what
/// printMethod prints (names, types, opcodes and conversion kinds,
/// operand identities, constant bits, block order, predecessors and
/// successors, callees, fields, statics, address expressions), walked
/// without building text. Equal hashes mean equal printMethod text, up
/// to 64-bit collisions. Like the printer it omits a prefetch's anchor
/// and stride, which only the governor reads.
uint64_t hashMethod(Method *M, uint64_t Seed = 0);

} // namespace ir
} // namespace spf

#endif // SPF_IR_IRPRINTER_H
