//===- core/PrefetchPlanner.h - Section 3.3 planning ------------*- C++ -*-===//
///
/// \file
/// Decides which prefetching code to generate from the stride-annotated
/// load dependence graph, implementing the paper's Section 3.3:
///
///  * node Lx with inter-iteration stride d whose adjacent nodes all have
///    inter patterns (or none): `prefetch(A(Lx) + d*c)`;
///  * otherwise (some adjacent Ly lacks an inter pattern):
///    `a = spec_load(A(Lx) + d*c); prefetch(F[Lx,Ly](a))` and, for every
///    Lz with a direct or transitive intra-iteration stride from Ly,
///    `prefetch(F[Lx,Ly](a) + S[Ly,Lz])`;
///
/// gated by the profitability analysis: (1) the load must have data-
/// dependent instructions, (2) no second prefetch to an apparently shared
/// cache line, (3) a pure inter-stride prefetch requires |d| greater than
/// half a cache line.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_CORE_PREFETCHPLANNER_H
#define SPF_CORE_PREFETCHPLANNER_H

#include "analysis/DefUse.h"
#include "core/LoadDependenceGraph.h"

namespace spf {
namespace core {

/// Which stride patterns the pass exploits (the paper's two evaluated
/// configurations).
enum class PrefetchMode : uint8_t {
  Inter,      ///< INTER: inter-iteration stride prefetching only
              ///< (the paper's emulation of Wu's approach).
  InterIntra, ///< INTER+INTRA: adds dereference-based and intra-iteration
              ///< stride prefetching.
};

/// Planner knobs. Line/page sizes come from the compilation target.
struct PlannerOptions {
  PrefetchMode Mode = PrefetchMode::InterIntra;
  /// Scheduling distance c in iterations (the paper fixes c = 1).
  unsigned ScheduleDistance = 1;
  /// Cache line size of the level software prefetches fill.
  unsigned LineBytes = 64;
  /// Use guarded loads (TLB priming) for the dereference-based and
  /// intra-iteration prefetches, as done on the Pentium 4.
  bool GuardedIntraPrefetch = false;
  /// Extension (Wu's taxonomy): also emit plain prefetches for loads with
  /// weak single-stride or phased multiple-stride patterns. The paper's
  /// algorithm exploits strong single strides only, so this is off by
  /// default; the ablation bench measures the difference.
  bool ExploitWeakStrides = false;

  bool operator==(const PlannerOptions &) const = default;
};

/// One prefetch relative to the value a spec_load produced.
struct DerefPrefetch {
  int64_t Offset = 0;         ///< F offset plus accumulated intra strides.
  bool Guarded = false;
  ir::Instruction *ForLoad = nullptr; ///< The load whose data this covers.
  bool IsIntra = false;       ///< True for the S[Ly,Lz] prefetches.
};

/// Everything to emit for one anchor load Lx.
struct AnchorPlan {
  ir::Instruction *Anchor = nullptr; ///< Lx; insertion point.
  // A(Lx) decomposition: Base + Index*Scale + AnchorDisp, where AnchorDisp
  // already includes d*c.
  ir::Value *Base = nullptr;
  ir::Value *Index = nullptr;
  unsigned Scale = 0;
  int64_t AnchorDisp = 0;
  int64_t InterStride = 0;

  /// Plain inter-iteration stride prefetch (empty Derefs), or a spec_load
  /// followed by the dereference-based/intra prefetches.
  bool EmitPlain = false;
  bool PlainGuarded = false;
  std::vector<DerefPrefetch> Derefs;
};

/// The plan for one loop.
struct LoopPlan {
  std::vector<AnchorPlan> Anchors;

  unsigned numPlain() const;
  unsigned numSpecLoads() const;
  unsigned numDeref() const; ///< Dereference-based (non-intra) prefetches.
  unsigned numIntra() const;
};

/// Decomposes a heap load's address into base/index/scale/displacement.
/// \returns false for loads without a decomposable address (getstatic).
bool decomposeAddress(const ir::Instruction *Load, ir::Value *&Base,
                      ir::Value *&Index, unsigned &Scale, int64_t &Disp);

/// The constant offset F[Lx,Ly] adds to a loaded reference to form Ly's
/// address (field offset, array-length offset, or first-element offset).
int64_t dereferenceOffset(const ir::Instruction *Ly);

/// Builds the prefetch plan for \p Graph (already stride-annotated).
LoopPlan planPrefetches(const LoadDependenceGraph &Graph,
                        const analysis::DefUse &DU,
                        const PlannerOptions &Opts);

} // namespace core
} // namespace spf

#endif // SPF_CORE_PREFETCHPLANNER_H
