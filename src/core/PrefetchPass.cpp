//===- core/PrefetchPass.cpp ----------------------------------------------===//

#include "core/PrefetchPass.h"

#include "obs/DecisionLog.h"
#include "support/Status.h"

#include <algorithm>
#include <string>

using namespace spf;
using namespace spf::core;
using namespace spf::ir;

namespace {

/// Runs object inspection, converting any escaped exception into an
/// error the pass degrades on (the inspector is a partial interpreter
/// over possibly-adversarial IR; it must never take the JIT down).
support::Expected<InspectionResult>
inspectChecked(ObjectInspector &Inspector, Method *M,
               const std::vector<uint64_t> &Args, analysis::Loop *L,
               const LoadDependenceGraph &Graph) {
  try {
    InspectionResult Insp = Inspector.inspect(M, Args, L, Graph);
    if (Insp.Degraded)
      return support::Status::error(Insp.DegradeReason.empty()
                                        ? "inspection degraded"
                                        : Insp.DegradeReason);
    return Insp;
  } catch (const std::exception &E) {
    return support::Status::error(std::string("inspection failed: ") +
                                  E.what());
  }
}

/// Plans prefetches and validates the plan's structural invariants
/// before any IR is mutated; a plan that fails validation degrades the
/// loop instead of feeding garbage to codegen.
support::Expected<LoopPlan> planChecked(const LoadDependenceGraph &Graph,
                                        const analysis::DefUse &DU,
                                        const PlannerOptions &Opts) {
  LoopPlan Plan;
  try {
    Plan = planPrefetches(Graph, DU, Opts);
  } catch (const std::exception &E) {
    return support::Status::error(std::string("planning failed: ") +
                                  E.what());
  }
  for (const AnchorPlan &A : Plan.Anchors) {
    if (!A.Anchor || !A.Base)
      return support::Status::error(
          "invalid plan: anchor without an insertion point or base");
    for (const DerefPrefetch &D : A.Derefs)
      if (!D.ForLoad)
        return support::Status::error(
            "invalid plan: dereference prefetch without a covered load");
  }
  return Plan;
}

} // namespace

PrefetchPassResult PrefetchPass::run(Method *M,
                                     const std::vector<uint64_t> &Args) {
  M->recomputePreds();
  analysis::DominatorTree DT(M);
  analysis::LoopInfo LI(M, DT);
  analysis::DefUse DU(M);
  return run(M, Args, LI, DU);
}

PrefetchPassResult PrefetchPass::run(Method *M,
                                     const std::vector<uint64_t> &Args,
                                     const analysis::LoopInfo &LI,
                                     const analysis::DefUse &DU) {
  PrefetchPassResult Result;
  if (!M || M->numBlocks() == 0 || LI.numLoops() == 0)
    return Result;

  uint64_t InspectionStepsLeft = Opts.MethodInspectionBudget;
  obs::DecisionLog *DL = obs::DecisionScope::current();

  // "The algorithm then traverses the loops in each tree in a postorder
  //  traversal, walking the trees in the program order."
  for (analysis::Loop *L : LI.loopsPostOrder()) {
    ++Result.LoopsVisited;
    LoopReport Report;
    Report.L = L;
    if (DL)
      DL->setContext(M->name(), L->header()->id());

    // Step 1: load dependence graph (nested loads included tentatively).
    LoadDependenceGraph Graph(L, LI);
    if (Graph.nodes().empty()) {
      if (DL)
        DL->event("ldg", "no-candidates", "",
                  "no reference-based loads in loop");
      Result.Loops.push_back(Report);
      continue;
    }
    if (DL)
      DL->event("ldg", "built", "",
                "nodes=" + std::to_string(Graph.nodes().size()) +
                    " edges=" + std::to_string(Graph.edges().size()));

    // Step 2: object inspection with the actual parameter values,
    // under the method-wide step budget.
    if (InspectionStepsLeft == 0) {
      if (DL)
        DL->event("inspect", "budget-exhausted", "",
                  "method inspection budget consumed by earlier loops");
      Result.Loops.push_back(Report);
      continue;
    }
    InspectorOptions InspOpts = Opts.Inspector;
    InspOpts.StepBudget = std::min<uint64_t>(InspOpts.StepBudget,
                                             InspectionStepsLeft);
    ObjectInspector Inspector(Heap, LI, InspOpts);
    support::Expected<InspectionResult> InspOrErr =
        inspectChecked(Inspector, M, Args, L, Graph);
    if (!InspOrErr.ok()) {
      ++Result.LoopsDegraded;
      Report.Degraded = true;
      Report.DegradeReason = InspOrErr.error();
      if (DL)
        DL->event("inspect", "degraded", "", Report.DegradeReason);
      Result.Loops.push_back(Report);
      continue;
    }
    InspectionResult &Insp = *InspOrErr;
    InspectionStepsLeft -= std::min(InspectionStepsLeft, Insp.StepsUsed);
    Report.Reached = Insp.ReachedTarget;
    Report.IterationsObserved = Insp.IterationsObserved;
    if (!Insp.ReachedTarget) {
      ++Result.LoopsNotReached;
      if (DL)
        DL->event("inspect", "not-reached", "",
                  "inspection never entered the loop", 0, Insp.StepsUsed);
      Result.Loops.push_back(Report);
      continue;
    }

    // A loop that exits within the small-trip budget is not prefetched
    // directly; its loads are reconsidered with the parent loop.
    if (Insp.TargetExitedEarly &&
        Insp.IterationsObserved <= Opts.SmallTripMax) {
      ++Result.LoopsSkippedSmallTrip;
      Report.SkippedSmallTrip = true;
      if (DL)
        DL->event("inspect", "small-trip", "",
                  "loop exited within the small-trip bound; loads deferred "
                  "to the parent loop",
                  0, Insp.IterationsObserved);
      Result.Loops.push_back(Report);
      continue;
    }
    if (DL)
      DL->event("inspect", "reached", "", "", 0, Insp.IterationsObserved);

    // Step 3: stride pattern annotation.
    annotateStrides(Graph, Insp, Opts.Stride);
    for (const LdgNode &N : Graph.nodes())
      Report.NodesWithInterStride += N.InterStride.has_value();
    for (const LdgEdge &E : Graph.edges())
      Report.EdgesWithIntraStride += E.IntraStride.has_value();

    // Step 4: plan and generate prefetching code. Only a validated plan
    // reaches applyPlan (the one step that mutates IR).
    support::Expected<LoopPlan> PlanOrErr = planChecked(Graph, DU, Opts.Planner);
    if (!PlanOrErr.ok()) {
      ++Result.LoopsDegraded;
      Report.Degraded = true;
      Report.DegradeReason = PlanOrErr.error();
      if (DL)
        DL->event("plan", "degraded", "", Report.DegradeReason);
      Result.Loops.push_back(Report);
      continue;
    }
    LoopPlan &Plan = *PlanOrErr;
    Report.PlainPrefetches = Plan.numPlain();
    Report.SpecLoads = Plan.numSpecLoads();
    Report.DerefPrefetches = Plan.numDeref();
    Report.IntraPrefetches = Plan.numIntra();
    if (DL && Plan.Anchors.empty())
      DL->event("plan", "nothing-profitable", "",
                "no anchor passed the profitability conditions");

    CodeGenStats CG = applyPlan(Plan);
    Result.CodeGen.Prefetches += CG.Prefetches;
    Result.CodeGen.SpecLoads += CG.SpecLoads;
    if (DL && !Plan.Anchors.empty())
      DL->event("codegen", "emitted", "",
                "prefetches=" + std::to_string(CG.Prefetches) +
                    " spec_loads=" + std::to_string(CG.SpecLoads));

    Result.Loops.push_back(Report);
  }

  return Result;
}
