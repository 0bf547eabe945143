//===- core/PrefetchCodeGen.cpp -------------------------------------------===//

#include "core/PrefetchCodeGen.h"

#include "obs/DecisionLog.h"

#include <unordered_map>

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
  for (const DetachedCode::Entry &E : detachPrefetchCode(M).Entries)
    ++(isa<PrefetchInst>(E.I.get()) ? Stats.Prefetches : Stats.SpecLoads);
  return Stats;
}

DetachedCode core::detachPrefetchCode(ir::Method &M) {
  DetachedCode Code;
  for (const auto &BB : M.blocks()) {
    std::vector<Instruction *> Lifted;
    Instruction *Prev = nullptr;
    for (const auto &IP : BB->instructions()) {
      if (isa<AddressedInst>(IP.get())) {
        Code.Entries.push_back({BB.get(), Prev, nullptr});
        Lifted.push_back(IP.get());
      }
      Prev = IP.get();
    }
    const size_t First = Code.Entries.size() - Lifted.size();
    for (size_t K = 0; K != Lifted.size(); ++K)
      Code.Entries[First + K].I = BB->detach(Lifted[K]);
  }
  return Code;
}

void core::attachPrefetchCode(DetachedCode Code) {
  for (DetachedCode::Entry &E : Code.Entries) {
    if (E.After)
      E.Block->insertAfter(E.After, std::move(E.I));
    else if (E.Block->empty())
      E.Block->append(std::move(E.I));
    else
      E.Block->insertBefore(E.Block->front(), std::move(E.I));
  }
}

bool core::samePrefetchCode(const DetachedCode &A, const DetachedCode &B) {
  if (A.Entries.size() != B.Entries.size())
    return false;
  std::unordered_map<const Value *, size_t> InA, InB;
  for (size_t K = 0; K != A.Entries.size(); ++K) {
    InA.emplace(A.Entries[K].I.get(), K);
    InB.emplace(B.Entries[K].I.get(), K);
  }
  auto Same = [&](const Value *X, const Value *Y) {
    auto KX = InA.find(X), KY = InB.find(Y);
    if (KX == InA.end() || KY == InB.end())
      return KX == InA.end() && KY == InB.end() && X == Y;
    return KX->second == KY->second;
  };
  for (size_t K = 0; K != A.Entries.size(); ++K) {
    const DetachedCode::Entry &EA = A.Entries[K], &EB = B.Entries[K];
    const auto *X = cast<AddressedInst>(EA.I.get());
    const auto *Y = cast<AddressedInst>(EB.I.get());
    const auto *PX = dyn_cast<PrefetchInst>(X);
    const auto *PY = dyn_cast<PrefetchInst>(Y);
    if (EA.Block != EB.Block || !Same(EA.After, EB.After) ||
        X->opcode() != Y->opcode() || (PX && PX->isGuarded() != PY->isGuarded()) ||
        !Same(X->base(), Y->base()) || !Same(X->index(), Y->index()) ||
        X->scale() != Y->scale() || X->displacement() != Y->displacement() ||
        !Same(X->anchor(), Y->anchor()) || X->name() != Y->name())
      return false;
  }
  return true;
}
