//===- core/PrefetchCodeGen.h - Plan application ----------------*- C++ -*-===//
///
/// \file
/// Rewrites the IR according to a LoopPlan: inserts `prefetch` /
/// `spec_load` instructions immediately after their anchor loads, exactly
/// mirroring the code sequences of the paper's Figures 3 and 4.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_CORE_PREFETCHCODEGEN_H
#define SPF_CORE_PREFETCHCODEGEN_H

#include "core/PrefetchPlanner.h"

#include <memory>

namespace spf {
namespace core {

/// Numbers of instructions inserted.
struct CodeGenStats {
  unsigned Prefetches = 0;
  unsigned SpecLoads = 0;
};

/// Materializes \p Plan into the anchors' blocks.
CodeGenStats applyPlan(const LoopPlan &Plan);

/// Removes every prefetch / spec_load from \p M, returning how many of
/// each were erased. Spec loads feed only the prefetches of their own
/// chain, so stripping both leaves the method exactly as the planner
/// found it — this is the "undo" half of governor-triggered
/// re-inspection + re-JIT (anchor loads are untouched, so load SiteIds
/// stay stable across the rebuild).
CodeGenStats stripPrefetchCode(ir::Method &M);

/// Prefetch code lifted out of a method: every prefetch and spec_load in
/// program order, each with the instruction it followed (itself possibly
/// lifted code; null when it led its block).
struct DetachedCode {
  struct Entry {
    ir::BasicBlock *Block = nullptr;
    ir::Instruction *After = nullptr;
    std::unique_ptr<ir::Instruction> I;
  };
  std::vector<Entry> Entries;
};

/// Lifts every prefetch / spec_load out of \p M, leaving what
/// stripPrefetchCode leaves.
DetachedCode detachPrefetchCode(ir::Method &M);

/// Puts \p Code back, each instruction right after the one it followed.
/// Code of several owners (ir::AddressedInst::owner) can be attached to
/// one method: each chain stays contiguous behind its anchor.
void attachPrefetchCode(DetachedCode Code);

/// True when \p A and \p B would put the same instructions at the same
/// places: equal in order, opcode, guard, address expression, anchor and
/// position, an operand or position inside the code itself compared by
/// its index there.
bool samePrefetchCode(const DetachedCode &A, const DetachedCode &B);

} // namespace core
} // namespace spf

#endif // SPF_CORE_PREFETCHCODEGEN_H
