//===- vm/GarbageCollector.cpp --------------------------------------------===//

#include "vm/GarbageCollector.h"

#include "support/SplitMix64.h"

#include <unordered_map>
#include <unordered_set>

using namespace spf;
using namespace spf::vm;

namespace {

/// Applies \p Fn to the address of every reference slot inside the object
/// at \p Obj (class ref fields, or all elements of a ref array).
template <typename Callback>
void forEachRefSlot(const Heap &H, Addr Obj, Callback Fn) {
  if (H.isArray(Obj)) {
    if (H.arrayElemType(Obj) != ir::Type::Ref)
      return;
    for (uint64_t I = 0, E = H.arrayLength(Obj); I != E; ++I)
      Fn(Obj + ObjectHeaderSize + I * 8);
    return;
  }
  const ClassDesc *Cls = H.types().classById(H.descId(Obj));
  assert(Cls && "live object with unknown class");
  for (const auto &F : Cls->fields())
    if (F->Ty == ir::Type::Ref)
      Fn(Obj + F->Offset);
}

} // namespace

const char *vm::gcVariantName(GcVariant V) {
  switch (V) {
  case GcVariant::SlidingCompact:
    return "sliding-compact";
  case GcVariant::MarkSweep:
    return "mark-sweep";
  case GcVariant::AddressShuffle:
    return "address-shuffle";
  case GcVariant::PromotionOrder:
    return "promotion-order";
  }
  return "?";
}

std::optional<GcVariant> vm::parseGcVariant(const std::string &Name) {
  if (Name == "sliding-compact")
    return GcVariant::SlidingCompact;
  if (Name == "mark-sweep")
    return GcVariant::MarkSweep;
  if (Name == "address-shuffle")
    return GcVariant::AddressShuffle;
  if (Name == "promotion-order")
    return GcVariant::PromotionOrder;
  return std::nullopt;
}

GcStats GarbageCollector::sweepInPlace(Heap &H) {
  // Non-compacting: live objects stay put; maximal dead runs (previous
  // fillers included — they are unreachable by construction) coalesce
  // into free-list holes.
  GcStats Stats;
  Addr HoleStart = 0;
  uint64_t HoleBytes = 0;
  auto FlushHole = [&] {
    if (HoleBytes) {
      H.addFreeBlock(HoleStart - H.heapBase(), HoleBytes);
      Stats.ReclaimedBytes += HoleBytes;
      HoleBytes = 0;
    }
  };
  for (Addr Obj = H.heapBase(), End = H.heapTop(); Obj < End;) {
    uint64_t Size = H.objectSize(Obj);
    if (H.marked(Obj)) {
      H.setMarked(Obj, false);
      ++Stats.LiveObjects;
      Stats.LiveBytes += Size;
      FlushHole();
    } else {
      if (!HoleBytes)
        HoleStart = Obj;
      HoleBytes += Size;
    }
    Obj += Size;
  }
  FlushHole();
  return Stats;
}

GcStats GarbageCollector::collect(Heap &H, const std::vector<Addr *> &Roots) {
  ++Collections;
  GcStats Stats;

  // Any collection invalidates the recorded holes: compacting variants
  // move objects over them, and mark-sweep rebuilds the list from this
  // cycle's dead runs.
  H.clearFreeList();

  // Index object starts so stray (non-reference) bit patterns in ref slots
  // can be rejected instead of corrupting the trace.
  std::unordered_set<Addr> Starts;
  for (Addr Obj = H.heapBase(), End = H.heapTop(); Obj < End;
       Obj += H.objectSize(Obj))
    Starts.insert(Obj);

  auto IsObjectRef = [&](Addr A) {
    return A && H.isHeapAddress(A) && Starts.count(A);
  };

  // -- Mark ---------------------------------------------------------------
  // Discovery order doubles as the PromotionOrder placement sequence.
  std::vector<Addr> Work;
  std::vector<Addr> Discovery;
  const bool KeepDiscovery = Variant == GcVariant::PromotionOrder;
  auto MarkRoot = [&](Addr A) {
    if (IsObjectRef(A) && !H.marked(A)) {
      H.setMarked(A, true);
      Work.push_back(A);
      if (KeepDiscovery)
        Discovery.push_back(A);
    }
  };

  for (Addr *Slot : Roots)
    MarkRoot(*Slot);
  for (Addr Slot : H.staticRefSlots())
    MarkRoot(H.load(Slot, ir::Type::Ref));

  while (!Work.empty()) {
    Addr Obj = Work.back();
    Work.pop_back();
    forEachRefSlot(H, Obj, [&](Addr SlotAddr) {
      MarkRoot(H.load(SlotAddr, ir::Type::Ref));
    });
  }

  if (Variant == GcVariant::MarkSweep)
    return sweepInPlace(H);

  // -- Compute forwarding addresses ----------------------------------------
  // The placement sequence decides what survives of the paper's stride
  // property: address order (bump-assigned) preserves live-object order,
  // the other sequences deliberately do not.
  std::vector<Addr> Order;
  if (KeepDiscovery) {
    Order = std::move(Discovery);
  } else {
    for (Addr Obj = H.heapBase(), End = H.heapTop(); Obj < End;
         Obj += H.objectSize(Obj)) {
      if (H.marked(Obj))
        Order.push_back(Obj);
    }
  }
  if (Variant == GcVariant::AddressShuffle && Order.size() > 1) {
    // Windowed Fisher-Yates, deterministic in (seed, collection count):
    // strides break inside every window while the heap's coarse layout
    // (pages, working set) stays near the compacted order.
    SplitMix64 Rng(ShuffleSeed ^ (Collections * 0x9e3779b97f4a7c15ull));
    for (size_t W0 = 0; W0 < Order.size(); W0 += ShuffleWindow) {
      size_t WE = std::min(W0 + ShuffleWindow, Order.size());
      for (size_t I = WE - 1; I > W0; --I)
        std::swap(Order[I], Order[W0 + Rng.nextBelow(I - W0 + 1)]);
    }
  }

  std::unordered_map<Addr, Addr> Forward;
  Addr NextFree = H.heapBase();
  for (Addr Obj : Order) {
    Forward[Obj] = NextFree;
    NextFree += H.objectSize(Obj);
    ++Stats.LiveObjects;
  }
  Stats.LiveBytes = NextFree - H.heapBase();
  Stats.ReclaimedBytes = (H.heapTop() - H.heapBase()) - Stats.LiveBytes;

  auto Relocate = [&](Addr A) {
    auto It = Forward.find(A);
    return It == Forward.end() ? A : It->second;
  };

  // -- Fix references in live objects, statics, and roots ------------------
  for (Addr Obj = H.heapBase(), End = H.heapTop(); Obj < End;
       Obj += H.objectSize(Obj)) {
    if (!H.marked(Obj))
      continue;
    forEachRefSlot(H, Obj, [&](Addr SlotAddr) {
      Addr V = H.load(SlotAddr, ir::Type::Ref);
      if (IsObjectRef(V))
        H.store(SlotAddr, ir::Type::Ref, Relocate(V));
    });
  }
  for (Addr Slot : H.staticRefSlots()) {
    Addr V = H.load(Slot, ir::Type::Ref);
    if (IsObjectRef(V))
      H.store(Slot, ir::Type::Ref, Relocate(V));
  }
  for (Addr *Slot : Roots)
    if (IsObjectRef(*Slot))
      *Slot = Relocate(*Slot);

  if (Variant == GcVariant::SlidingCompact) {
    // -- Slide live objects down (ascending order; moves never overlap
    //    destructively) and clear marks ------------------------------------
    for (Addr Obj = H.heapBase(), End = H.heapTop(); Obj < End;) {
      // Cache the size: once the object slides down over its old storage
      // the header at the old address is no longer readable.
      uint64_t Size = H.objectSize(Obj);
      if (H.marked(Obj)) {
        H.setMarked(Obj, false);
        Addr To = Forward[Obj];
        if (To != Obj)
          std::memmove(H.ptr(To), H.ptr(Obj), Size);
      }
      Obj += Size;
    }
  } else {
    // -- Reordering placement: destinations can overlap sources in either
    //    direction, so stage the live image in a scratch buffer ------------
    std::vector<uint8_t> Scratch(Stats.LiveBytes);
    for (Addr Obj : Order) {
      uint64_t Size = H.objectSize(Obj);
      uint64_t Off = Forward[Obj] - H.heapBase();
      std::memcpy(Scratch.data() + Off, H.ptr(Obj), Size);
      uint32_t Flags;
      std::memcpy(&Flags, Scratch.data() + Off + 4, 4);
      Flags &= ~HF_Marked;
      std::memcpy(Scratch.data() + Off + 4, &Flags, 4);
    }
    if (Stats.LiveBytes)
      std::memcpy(H.ptr(H.heapBase()), Scratch.data(), Stats.LiveBytes);
  }

  H.setTop(NextFree - H.heapBase());
  return Stats;
}
