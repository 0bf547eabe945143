//===- tests/opt_test.cpp - Baseline pipeline optimizations ---------------===//

#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "opt/ConstantFolding.h"
#include "opt/DeadCodeElim.h"
#include "opt/Governor.h"
#include "opt/LocalCSE.h"

#include <gtest/gtest.h>

using namespace spf;
using namespace spf::ir;

namespace {

unsigned countInstructions(Method *M) {
  unsigned N = 0;
  for (const auto &BB : M->blocks())
    N += BB->size();
  return N;
}

class OptTest : public ::testing::Test {
protected:
  vm::TypeTable Types;
  Module M;
};

TEST_F(OptTest, FoldsConstantChains) {
  Method *Fn = M.addMethod("f", Type::I32, {Type::I32});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  Value *A = B.add(B.i32(2), B.i32(3));   // 5
  Value *C = B.mul(A, B.i32(4));          // 20, after A folds
  Value *D = B.add(Fn->arg(0), C);        // Not foldable.
  B.ret(D);

  unsigned Folded = opt::foldConstants(Fn);
  EXPECT_EQ(Folded, 2u);
  EXPECT_TRUE(verifyMethod(Fn));
  // Only the add with the argument and the ret remain.
  EXPECT_EQ(countInstructions(Fn), 2u);
  auto *Add = cast<BinaryInst>(Fn->entry()->front());
  auto *K = dyn_cast<Constant>(Add->rhs());
  ASSERT_NE(K, nullptr);
  EXPECT_EQ(K->intValue(), 20);
}

TEST_F(OptTest, FoldingRespectsI32Wraparound) {
  Method *Fn = M.addMethod("f", Type::I32, {});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  Value *A = B.add(B.i32(0x7fffffff), B.i32(1));
  B.ret(A);
  opt::foldConstants(Fn);
  auto *K = dyn_cast<Constant>(cast<RetInst>(Fn->entry()->back())->value());
  ASSERT_NE(K, nullptr);
  EXPECT_EQ(K->intValue(), -2147483648LL);
}

TEST_F(OptTest, DivisionByZeroIsNotFolded) {
  Method *Fn = M.addMethod("f", Type::I32, {});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  Value *A = B.div(B.i32(10), B.i32(0));
  B.ret(A);
  EXPECT_EQ(opt::foldConstants(Fn), 0u);
}

TEST_F(OptTest, FoldsComparisons) {
  Method *Fn = M.addMethod("f", Type::I32, {});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  B.ret(B.cmpLt(B.i32(3), B.i32(7)));
  opt::foldConstants(Fn);
  auto *K = dyn_cast<Constant>(cast<RetInst>(Fn->entry()->back())->value());
  ASSERT_NE(K, nullptr);
  EXPECT_EQ(K->intValue(), 1);
}

TEST_F(OptTest, CseMergesIdenticalExpressions) {
  Method *Fn = M.addMethod("f", Type::I32, {Type::I32, Type::I32});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  Value *A1 = B.add(Fn->arg(0), Fn->arg(1));
  Value *A2 = B.add(Fn->arg(0), Fn->arg(1)); // Duplicate.
  Value *A3 = B.add(Fn->arg(1), Fn->arg(0)); // Different operand order.
  B.ret(B.mul(B.mul(A1, A2), A3));

  EXPECT_EQ(opt::localCSE(Fn), 1u);
  EXPECT_TRUE(verifyMethod(Fn));
}

TEST_F(OptTest, CseMergesArrayLengthButNotGetField) {
  auto *Cls = Types.addClass("C");
  const vm::FieldDesc *F = Types.addField(Cls, "f", Type::I32);

  Method *Fn = M.addMethod("f", Type::I32, {Type::Ref});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  Value *L1 = B.arrayLength(Fn->arg(0));
  Value *L2 = B.arrayLength(Fn->arg(0)); // Lengths are immutable: merge.
  Value *G1 = B.getField(Fn->arg(0), F);
  Value *G2 = B.getField(Fn->arg(0), F); // Mutable memory: keep both.
  B.ret(B.add(B.add(L1, L2), B.add(G1, G2)));

  EXPECT_EQ(opt::localCSE(Fn), 1u);
}

TEST_F(OptTest, CseIsBlockLocal) {
  Method *Fn = M.addMethod("f", Type::I32, {Type::I32});
  IRBuilder B(M);
  BasicBlock *Entry = Fn->addBlock("entry");
  BasicBlock *Next = Fn->addBlock("next");
  B.setInsertPoint(Entry);
  Value *A1 = B.add(Fn->arg(0), B.i32(5));
  B.jump(Next);
  B.setInsertPoint(Next);
  Value *A2 = B.add(Fn->arg(0), B.i32(5)); // Same expr, other block.
  B.ret(B.mul(A1, A2));
  EXPECT_EQ(opt::localCSE(Fn), 0u);
}

TEST_F(OptTest, DceRemovesUnusedPureChains) {
  auto *Cls = Types.addClass("C");
  const vm::FieldDesc *F = Types.addField(Cls, "f", Type::I32);

  Method *Fn = M.addMethod("f", Type::I32, {Type::Ref, Type::I32});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  Value *Dead1 = B.add(Fn->arg(1), B.i32(1));
  B.mul(Dead1, Dead1);                  // Dead, and keeps Dead1 alive
                                        // until the first round.
  B.getField(Fn->arg(0), F);            // Dead load: removable.
  B.putField(Fn->arg(0), F, Fn->arg(1)); // Side effect: must stay.
  B.ret(Fn->arg(1));

  unsigned Removed = opt::eliminateDeadCode(Fn);
  EXPECT_EQ(Removed, 3u);
  EXPECT_TRUE(verifyMethod(Fn));
  EXPECT_EQ(countInstructions(Fn), 2u); // putfield + ret.
}

TEST_F(OptTest, DceKeepsLoopCarriedPhis) {
  Method *Fn = M.addMethod("f", Type::I32, {Type::I32});
  IRBuilder B(M);
  BasicBlock *Entry = Fn->addBlock("entry");
  BasicBlock *H = Fn->addBlock("h");
  BasicBlock *Body = Fn->addBlock("body");
  BasicBlock *Exit = Fn->addBlock("exit");
  B.setInsertPoint(Entry);
  B.jump(H);
  B.setInsertPoint(H);
  PhiInst *I = B.phi(Type::I32);
  B.br(B.cmpLt(I, Fn->arg(0)), Body, Exit);
  B.setInsertPoint(Body);
  Value *I1 = B.add(I, B.i32(1));
  B.jump(H);
  B.setInsertPoint(Exit);
  B.ret(I);
  Fn->recomputePreds();
  I->addIncoming(Entry, M.intConst(Type::I32, 0));
  I->addIncoming(Body, I1);

  EXPECT_EQ(opt::eliminateDeadCode(Fn), 0u);
  EXPECT_TRUE(verifyMethod(Fn));
}

TEST_F(OptTest, DceRemovesDeepDeadChainInOneCall) {
  Method *Fn = M.addMethod("f", Type::I32, {Type::I32});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  Value *V = Fn->arg(0);
  for (int I = 0; I != 100; ++I)
    V = B.add(V, B.i32(1)); // Each link is used only by the next.
  B.ret(Fn->arg(0));

  EXPECT_EQ(opt::eliminateDeadCode(Fn), 100u);
  EXPECT_TRUE(verifyMethod(Fn));
  EXPECT_EQ(countInstructions(Fn), 1u); // ret.
  EXPECT_EQ(opt::eliminateDeadCode(Fn), 0u);
}

TEST_F(OptTest, DceReleasesEveryUseOfARepeatedOperand) {
  Method *Fn = M.addMethod("f", Type::I32, {Type::I32});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  Value *X = B.add(Fn->arg(0), B.i32(3));
  B.mul(X, X); // Dead; x's only two uses.
  Value *Y = B.add(Fn->arg(0), B.i32(4));
  B.mul(Y, Y); // Dead, but y is also returned.
  B.ret(Y);

  EXPECT_EQ(opt::eliminateDeadCode(Fn), 3u);
  EXPECT_TRUE(verifyMethod(Fn));
  EXPECT_EQ(countInstructions(Fn), 2u); // y + ret.
  EXPECT_EQ(Fn->blocks().front()->front(), Y);
}

TEST_F(OptTest, DceKeepsDeadLoopCarriedCycle) {
  // A phi and its increment use only each other: neither ever reaches
  // zero uses, so DCE keeps the cycle (it removes unused values, it does
  // not prove liveness).
  Method *Fn = M.addMethod("f", Type::I32, {Type::I32});
  IRBuilder B(M);
  BasicBlock *Entry = Fn->addBlock("entry");
  BasicBlock *H = Fn->addBlock("h");
  BasicBlock *Body = Fn->addBlock("body");
  BasicBlock *Exit = Fn->addBlock("exit");
  B.setInsertPoint(Entry);
  B.jump(H);
  B.setInsertPoint(H);
  PhiInst *P = B.phi(Type::I32);
  B.br(B.cmpLt(Fn->arg(0), B.i32(10)), Body, Exit);
  B.setInsertPoint(Body);
  Value *P1 = B.add(P, B.i32(1));
  B.jump(H);
  B.setInsertPoint(Exit);
  B.ret(Fn->arg(0));
  Fn->recomputePreds();
  P->addIncoming(Entry, M.intConst(Type::I32, 0));
  P->addIncoming(Body, P1);

  unsigned Before = countInstructions(Fn);
  EXPECT_EQ(opt::eliminateDeadCode(Fn), 0u);
  EXPECT_TRUE(verifyMethod(Fn));
  EXPECT_EQ(countInstructions(Fn), Before);
}

TEST_F(OptTest, PipelineCombinationReachesFixpoint) {
  Method *Fn = M.addMethod("f", Type::I32, {Type::I32});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  // (x + (2*8)) computed twice, second unused after CSE.
  Value *K = B.mul(B.i32(2), B.i32(8));
  Value *A1 = B.add(Fn->arg(0), K);
  Value *A2 = B.add(Fn->arg(0), K);
  (void)A2;
  B.ret(A1);

  opt::foldConstants(Fn);
  opt::localCSE(Fn);
  opt::eliminateDeadCode(Fn);
  EXPECT_TRUE(verifyMethod(Fn));
  EXPECT_EQ(countInstructions(Fn), 2u); // add + ret.
}

// -- Prefetch-health governor ------------------------------------------------

/// Builds one cumulative site table entry from issue/fate counts.
sim::SiteStats health(uint64_t Issued, uint64_t Useful, uint64_t Late,
                      uint64_t Unused) {
  sim::SiteStats S;
  S.SwIssued = Issued;
  S.SwUseful = Useful;
  S.SwLate = Late;
  S.SwUnused = Unused;
  return S;
}

TEST(GovernorTest, HealthySitesAreKept) {
  opt::Governor Gov;
  // 64 resolved, 60 useful: comfortably above the accuracy floor.
  std::vector<sim::SiteStats> T = {health(64, 60, 2, 2)};
  opt::EpochVerdict V = Gov.endEpoch(T);
  EXPECT_TRUE(V.Quarantined.empty());
  EXPECT_FALSE(V.Reinspect);
  EXPECT_EQ(Gov.quarantinedSites(), 0u);
}

TEST(GovernorTest, ThinEvidenceNeverTriggersADecision) {
  opt::Governor Gov; // 32 resolved fills are needed.
  // 100% useless, but only 8 resolved fills: keep (no evidence).
  std::vector<sim::SiteStats> T = {health(8, 0, 0, 8)};
  EXPECT_TRUE(Gov.endEpoch(T).Quarantined.empty());
}

TEST(GovernorTest, InaccurateSiteIsQuarantined) {
  opt::Governor Gov;
  std::vector<sim::SiteStats> T = {health(64, 4, 4, 56)};
  opt::EpochVerdict V = Gov.endEpoch(T);
  EXPECT_EQ(V.Quarantined, (std::vector<exec::SiteId>{0}));
  EXPECT_FALSE(V.Reinspect); // One site is below the quorum.
  EXPECT_EQ(Gov.quarantinedSites(), 1u);

  // Quarantined sites are left alone afterwards, whatever their stats.
  std::vector<sim::SiteStats> T2 = {health(128, 8, 8, 112)};
  EXPECT_TRUE(Gov.endEpoch(T2).Quarantined.empty());
  EXPECT_EQ(Gov.quarantinedSites(), 1u);
}

TEST(GovernorTest, LateDominatedSiteIsQuarantinedOnItsFirstBadEpoch) {
  opt::Governor Gov;
  // Inaccurate by the floor but mostly *late*: the fills arrive, just not
  // in time. Late fills earn nothing either, so the site goes at once.
  std::vector<sim::SiteStats> T = {health(64, 10, 50, 4)};
  opt::EpochVerdict V = Gov.endEpoch(T);
  EXPECT_EQ(V.Quarantined, (std::vector<exec::SiteId>{0}));
  EXPECT_EQ(Gov.quarantinedSites(), 1u);
}

TEST(GovernorTest, QuarantineQuorumEscalatesToReinspectOnce) {
  opt::Governor Gov; // Two fresh quarantines escalate, once per run.
  std::vector<sim::SiteStats> T = {health(64, 2, 2, 60),
                                   health(64, 50, 4, 10),
                                   health(64, 3, 1, 60)};
  opt::EpochVerdict V = Gov.endEpoch(T);
  EXPECT_EQ(V.Quarantined, (std::vector<exec::SiteId>{0, 2}));
  EXPECT_TRUE(V.Reinspect);
  EXPECT_EQ(Gov.reinspections(), 1u);

  // The caller re-inspected: all prior decisions are void and the health
  // baseline restarts at the current cumulative counters.
  Gov.noteReinspected(T);
  EXPECT_EQ(Gov.quarantinedSites(), 0u);
  V = Gov.endEpoch(T); // Zero fresh evidence: keeps.
  EXPECT_TRUE(V.Quarantined.empty());
  EXPECT_FALSE(V.Reinspect);

  // A second quorum cannot escalate again: plain quarantines only.
  std::vector<sim::SiteStats> T2 = {health(128, 4, 4, 120),
                                    health(128, 100, 8, 20),
                                    health(128, 6, 2, 120)};
  V = Gov.endEpoch(T2);
  EXPECT_EQ(V.Quarantined, (std::vector<exec::SiteId>{0, 2}));
  EXPECT_FALSE(V.Reinspect);
  EXPECT_EQ(Gov.reinspections(), 1u);
}

TEST(GovernorTest, RptHealthIsObservedButNotGoverned) {
  // Hardware-RPT fills are attributed per site for the reports, but the
  // governor can only act on *software* prefetch code (suppress a
  // prefetch instruction); it must not quarantine a site on RPT evidence
  // alone — there is nothing to patch.
  opt::Governor Gov;
  sim::SiteStats S;
  S.RptIssued = 64;
  S.RptUseful = 2;
  S.RptUnused = 62;
  std::vector<sim::SiteStats> T = {S};
  EXPECT_TRUE(Gov.endEpoch(T).Quarantined.empty());
}

} // namespace
