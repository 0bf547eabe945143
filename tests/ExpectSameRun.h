//===- tests/ExpectSameRun.h - Whole-result equality ------------*- C++ -*-===//
///
/// \file
/// Compares two workloads::RunResult in every field but the wall-clock
/// InterpretUs, and Replayed unless asked to: what a shared member must
/// report against its solo run, and a parallel run against a serial one.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_TESTS_EXPECTSAMERUN_H
#define SPF_TESTS_EXPECTSAMERUN_H

#include "workloads/Runner.h"

#include <gtest/gtest.h>

#include <string>

namespace spf {

inline void expectSameRun(const workloads::RunResult &A,
                          const workloads::RunResult &B,
                          const std::string &Tag, bool WithReplayed) {
  EXPECT_EQ(A.CompiledCycles, B.CompiledCycles) << Tag;
  EXPECT_EQ(A.Retired, B.Retired) << Tag;
  EXPECT_EQ(A.Mem, B.Mem) << Tag;
  EXPECT_EQ(A.Acct, B.Acct) << Tag;
  EXPECT_EQ(A.Sites, B.Sites) << Tag;
  EXPECT_EQ(A.Exec, B.Exec) << Tag;
  EXPECT_EQ(A.ReturnValue, B.ReturnValue) << Tag;
  EXPECT_EQ(A.SelfCheckOk, B.SelfCheckOk) << Tag;
  EXPECT_EQ(A.Decisions, B.Decisions) << Tag;
  EXPECT_EQ(A.Epochs, B.Epochs) << Tag;
  EXPECT_EQ(A.GcCollections, B.GcCollections) << Tag;
  EXPECT_EQ(A.GovernorQuarantined, B.GovernorQuarantined) << Tag;
  EXPECT_EQ(A.GovernorReinspections, B.GovernorReinspections) << Tag;
  if (WithReplayed) {
    EXPECT_EQ(A.Replayed, B.Replayed) << Tag;
  }

  // The pass result in full, but for the loop pointers: each run's own.
  const core::PrefetchPassResult &P = A.Prefetch, &Q = B.Prefetch;
  EXPECT_EQ(P.LoopsVisited, Q.LoopsVisited) << Tag;
  EXPECT_EQ(P.LoopsSkippedSmallTrip, Q.LoopsSkippedSmallTrip) << Tag;
  EXPECT_EQ(P.LoopsNotReached, Q.LoopsNotReached) << Tag;
  EXPECT_EQ(P.LoopsDegraded, Q.LoopsDegraded) << Tag;
  EXPECT_EQ(P.CodeGen.Prefetches, Q.CodeGen.Prefetches) << Tag;
  EXPECT_EQ(P.CodeGen.SpecLoads, Q.CodeGen.SpecLoads) << Tag;
  ASSERT_EQ(P.Loops.size(), Q.Loops.size()) << Tag;
  for (size_t I = 0; I != P.Loops.size(); ++I) {
    const core::LoopReport &X = P.Loops[I], &Y = Q.Loops[I];
    const std::string L = Tag + " loop " + std::to_string(I);
    EXPECT_EQ(X.Reached, Y.Reached) << L;
    EXPECT_EQ(X.SkippedSmallTrip, Y.SkippedSmallTrip) << L;
    EXPECT_EQ(X.Degraded, Y.Degraded) << L;
    EXPECT_EQ(X.DegradeReason, Y.DegradeReason) << L;
    EXPECT_EQ(X.IterationsObserved, Y.IterationsObserved) << L;
    EXPECT_EQ(X.NodesWithInterStride, Y.NodesWithInterStride) << L;
    EXPECT_EQ(X.EdgesWithIntraStride, Y.EdgesWithIntraStride) << L;
    EXPECT_EQ(X.PlainPrefetches, Y.PlainPrefetches) << L;
    EXPECT_EQ(X.SpecLoads, Y.SpecLoads) << L;
    EXPECT_EQ(X.DerefPrefetches, Y.DerefPrefetches) << L;
    EXPECT_EQ(X.IntraPrefetches, Y.IntraPrefetches) << L;
  }
}

} // namespace spf

#endif // SPF_TESTS_EXPECTSAMERUN_H
