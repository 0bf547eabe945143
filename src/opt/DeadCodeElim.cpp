//===- opt/DeadCodeElim.cpp -----------------------------------------------===//

#include "opt/DeadCodeElim.h"

#include <unordered_map>
#include <vector>

using namespace spf;
using namespace spf::opt;
using namespace spf::ir;

static bool isRemovable(const Instruction *I) {
  return !I->hasSideEffects() && !I->isTerminator();
}

unsigned opt::eliminateDeadCode(Method *M) {
  // One operand scan counts the uses of every instruction (a repeated
  // operand counts once per occurrence). Erasing a dead instruction
  // releases its operands; any removable one whose count drops to zero
  // joins the worklist. This reaches the same fixed point as re-scanning
  // until nothing changes: an instruction goes exactly when all its users
  // went, so dead cycles (a loop-carried phi and its increment) stay.
  std::unordered_map<const Instruction *, unsigned> Uses;
  std::vector<Instruction *> Work;
  for (const auto &BB : M->blocks())
    for (const auto &IP : BB->instructions())
      for (Value *Op : IP->operands())
        if (auto *OpI = dyn_cast<Instruction>(Op))
          ++Uses[OpI];
  for (const auto &BB : M->blocks())
    for (const auto &IP : BB->instructions())
      if (isRemovable(IP.get()) && !Uses.count(IP.get()))
        Work.push_back(IP.get());

  unsigned Removed = 0;
  while (!Work.empty()) {
    Instruction *I = Work.back();
    Work.pop_back();
    for (Value *Op : I->operands())
      if (auto *OpI = dyn_cast<Instruction>(Op))
        if (--Uses[OpI] == 0 && isRemovable(OpI))
          Work.push_back(OpI);
    I->parent()->erase(I);
    ++Removed;
  }
  return Removed;
}
