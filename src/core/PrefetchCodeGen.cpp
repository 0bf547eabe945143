//===- core/PrefetchCodeGen.cpp -------------------------------------------===//

#include "core/PrefetchCodeGen.h"

#include "obs/DecisionLog.h"

using namespace spf;
using namespace spf::core;
using namespace spf::ir;

CodeGenStats core::applyPlan(const LoopPlan &Plan) {
  CodeGenStats Stats;
  obs::DecisionLog *DL = obs::DecisionScope::current();

  for (const AnchorPlan &A : Plan.Anchors) {
    BasicBlock *BB = A.Anchor->parent();
    Instruction *InsertPos = A.Anchor;

    if (A.EmitPlain) {
      auto Pf = std::make_unique<PrefetchInst>(A.Base, A.Index, A.Scale,
                                               A.AnchorDisp, A.PlainGuarded);
      Pf->setAnchor(A.Anchor);
      InsertPos = BB->insertAfter(InsertPos, std::move(Pf));
      ++Stats.Prefetches;
      if (DL)
        DL->event("codegen",
                  A.PlainGuarded ? "guarded-prefetch" : "prefetch",
                  obs::siteLabel(A.Anchor), "", A.InterStride);
      continue;
    }

    if (A.Derefs.empty())
      continue;

    // a = spec_load(A(Lx) + d*c)
    auto SpecI = std::make_unique<SpecLoadInst>(A.Base, A.Index, A.Scale,
                                                A.AnchorDisp);
    SpecI->setAnchor(A.Anchor);
    Instruction *Spec = BB->insertAfter(InsertPos, std::move(SpecI));
    Spec->setName("pref");
    ++Stats.SpecLoads;
    InsertPos = Spec;

    // prefetch(F(a) [+ S]) for each planned dereference target. The
    // derefs share the anchor: one governor decision covers the chain.
    unsigned Guarded = 0;
    for (const DerefPrefetch &D : A.Derefs) {
      auto Pf = std::make_unique<PrefetchInst>(Spec, nullptr, 0, D.Offset,
                                               D.Guarded);
      Pf->setAnchor(A.Anchor);
      InsertPos = BB->insertAfter(InsertPos, std::move(Pf));
      ++Stats.Prefetches;
      Guarded += D.Guarded;
    }
    if (DL)
      DL->event("codegen", "spec-load-chain", obs::siteLabel(A.Anchor),
                "derefs=" + std::to_string(A.Derefs.size()) +
                    " guarded=" + std::to_string(Guarded),
                A.InterStride);
  }

  return Stats;
}

CodeGenStats core::stripPrefetchCode(ir::Method &M) {
  CodeGenStats Stats;
  for (const auto &BB : M.blocks()) {
    // Prefetches first (they may use spec loads), spec loads second —
    // erase() requires the instruction to be user-free.
    std::vector<Instruction *> Prefetches;
    std::vector<Instruction *> SpecLoads;
    for (const auto &IP : BB->instructions()) {
      if (isa<PrefetchInst>(IP.get()))
        Prefetches.push_back(IP.get());
      else if (isa<SpecLoadInst>(IP.get()))
        SpecLoads.push_back(IP.get());
    }
    for (Instruction *I : Prefetches)
      BB->erase(I);
    for (Instruction *I : SpecLoads)
      BB->erase(I);
    Stats.Prefetches += static_cast<unsigned>(Prefetches.size());
    Stats.SpecLoads += static_cast<unsigned>(SpecLoads.size());
  }
  return Stats;
}
