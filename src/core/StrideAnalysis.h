//===- core/StrideAnalysis.h - Stride pattern detection ---------*- C++ -*-===//
///
/// \file
/// Turns the address trace gathered by object inspection into stride
/// annotations on the load dependence graph:
///
///  * inter-iteration: for a single load, the dominant difference between
///    the addresses it accesses in consecutive iterations;
///  * intra-iteration: for an adjacent pair (L1, L2) in the graph, the
///    dominant difference between the two addresses within one iteration.
///
/// "If the majority (for example, over 75%) of the strides of a load or a
/// pair of loads are the same, we recognize that they have stride
/// patterns" (Section 3.2).
///
//===----------------------------------------------------------------------===//

#ifndef SPF_CORE_STRIDEANALYSIS_H
#define SPF_CORE_STRIDEANALYSIS_H

#include "core/LoadDependenceGraph.h"
#include "core/ObjectInspector.h"

namespace spf {
namespace core {

/// Stride detection knobs (paper defaults).
struct StrideOptions {
  /// Fraction of samples the dominant stride must reach.
  double MajorityThreshold = 0.75;
  /// Minimum number of stride samples for a pattern to count at all.
  unsigned MinSamples = 4;
  /// Nested loops whose observed average trip count is at most this are
  /// "small trip count" and their loads are kept in the parent's graph.
  double SmallTripMax = 16.0;

  bool operator==(const StrideOptions &) const = default;
};

/// Finds the dominant value of \p Samples; returns it when it reaches the
/// majority threshold over at least MinSamples samples. \p Fraction, when
/// non-null, receives the dominant value's share of the samples (0 when
/// there are none) whether or not it wins — the decision log reports the
/// confidence behind rejections too.
std::optional<int64_t> dominantStride(const std::vector<int64_t> &Samples,
                                      const StrideOptions &Opts,
                                      unsigned *NumSamples = nullptr,
                                      double *Fraction = nullptr);

/// Classifies \p Samples into Wu's taxonomy: strong single stride (the
/// dominant value reaches the majority threshold), weak single stride
/// (50%..threshold), or phased multiple-stride (at most three distinct
/// strides arranged in a handful of constant runs). \p Stride receives
/// the dominant (or first-phase) stride.
StridePatternKind classifyStridePattern(const std::vector<int64_t> &Samples,
                                        const StrideOptions &Opts,
                                        int64_t &Stride);

/// Annotates \p Graph with inter- and intra-iteration strides from
/// \p Insp, after dropping nodes that live in nested loops with large trip
/// counts ("considered only if it has a small trip count").
///
/// Inter strides of exactly 0 (loop-invariant addresses) are discarded:
/// the paper's candidate criteria require "the memory address of the load
/// is not a loop invariant".
void annotateStrides(LoadDependenceGraph &Graph, const InspectionResult &Insp,
                     const StrideOptions &Opts);

} // namespace core
} // namespace spf

#endif // SPF_CORE_STRIDEANALYSIS_H
