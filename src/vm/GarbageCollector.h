//===- vm/GarbageCollector.h - Mark + sliding compaction --------*- C++ -*-===//
///
/// \file
/// Mark-and-sweep collector with sliding compaction, modeled on the JVM
/// the paper evaluates: "Live objects are packed by sliding compaction,
/// which does not change their internal order on the heap. Thus, the
/// garbage collector usually preserves constant strides among the live
/// objects." (Section 4). Preserving address order is therefore a tested
/// invariant of this collector.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_VM_GARBAGECOLLECTOR_H
#define SPF_VM_GARBAGECOLLECTOR_H

#include "vm/Heap.h"

#include <optional>

namespace spf {
namespace vm {

/// Statistics of one collection.
struct GcStats {
  uint64_t LiveObjects = 0;
  uint64_t LiveBytes = 0;
  uint64_t ReclaimedBytes = 0;
};

/// How a collection treats live-object placement. SlidingCompact is the
/// paper's JVM (and this repo's historical behavior): address-order
/// compaction that preserves allocation-order strides. The other
/// variants deliberately perturb placement so inspection-derived stride
/// plans go stale — the failure mode the prefetch-health governor
/// (opt/Governor.h) exists to detect and recover from.
enum class GcVariant : uint8_t {
  /// Mark + sliding compaction; live order and pitch preserved.
  SlidingCompact,
  /// Non-compacting mark-sweep: nothing moves, dead ranges become
  /// free-list holes (strides keep their pre-GC irregularity).
  MarkSweep,
  /// Compacting, but live objects land in a seeded windowed shuffle of
  /// their address order: stride plans break while page/working-set
  /// locality stays close to the compacted layout.
  AddressShuffle,
  /// Compacting in mark-discovery (promotion) order rather than address
  /// order — models a copying collector's traversal-order placement.
  PromotionOrder,
};

/// Stable lowercase names: "sliding-compact", "mark-sweep",
/// "address-shuffle", "promotion-order".
const char *gcVariantName(GcVariant V);
/// Inverse of gcVariantName; nullopt for unknown strings.
std::optional<GcVariant> parseGcVariant(const std::string &Name);

/// Stop-the-world mark collector with selectable placement policy
/// (sliding compaction by default).
class GarbageCollector {
public:
  /// Collects \p H. \p Roots are the mutator's reference slots (stack
  /// slots, handles); ref-typed statics are picked up automatically. Root
  /// slots holding null or non-heap values are ignored; live slots are
  /// updated in place when their referents move.
  GcStats collect(Heap &H, const std::vector<Addr *> &Roots);

  uint64_t collectionCount() const { return Collections; }

  /// Selects the placement policy for subsequent collections. \p Seed
  /// feeds the AddressShuffle permutation (mixed with the collection
  /// count, so successive shuffles differ deterministically).
  void setVariant(GcVariant V, uint64_t Seed = 0) {
    Variant = V;
    ShuffleSeed = Seed;
  }
  GcVariant variant() const { return Variant; }

  /// AddressShuffle permutes live objects within windows of this many
  /// objects. Small windows break stride predictions while keeping the
  /// working set's page locality close to compacted order.
  void setShuffleWindow(unsigned N) { ShuffleWindow = N ? N : 1; }

private:
  /// Non-compacting sweep: dead runs become free-list holes in \p H.
  GcStats sweepInPlace(Heap &H);

  uint64_t Collections = 0;
  GcVariant Variant = GcVariant::SlidingCompact;
  uint64_t ShuffleSeed = 0;
  unsigned ShuffleWindow = 64;
};

} // namespace vm
} // namespace spf

#endif // SPF_VM_GARBAGECOLLECTOR_H
