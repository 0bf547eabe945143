//===- opt/Liveness.h - Per-block live-variable analysis --------*- C++ -*-===//
///
/// \file
/// Classic backward live-variable dataflow over the dense value ids of a
/// method. Feeds the linear-scan register allocator and is part of the
/// baseline JIT pipeline whose time is the Figure 11 denominator.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_OPT_LIVENESS_H
#define SPF_OPT_LIVENESS_H

#include "ir/Method.h"

#include <unordered_map>
#include <vector>

namespace spf {
namespace opt {

/// Live-in/live-out bit vectors per block (indexed by Value::id(), dense
/// after Method::renumber()).
class Liveness {
public:
  explicit Liveness(ir::Method *M);

  const std::vector<bool> &liveIn(const ir::BasicBlock *BB) const {
    return LiveIn.at(BB);
  }
  const std::vector<bool> &liveOut(const ir::BasicBlock *BB) const {
    return LiveOut.at(BB);
  }

  /// True when the value with dense id \p Id is live across at least one
  /// block boundary (it needs a durable location).
  bool liveAcrossBlocks(unsigned Id) const { return CrossBlock[Id]; }

private:
  unsigned NumValues = 0;
  std::unordered_map<const ir::BasicBlock *, std::vector<bool>> LiveIn;
  std::unordered_map<const ir::BasicBlock *, std::vector<bool>> LiveOut;
  std::vector<bool> CrossBlock;
};

} // namespace opt
} // namespace spf

#endif // SPF_OPT_LIVENESS_H
