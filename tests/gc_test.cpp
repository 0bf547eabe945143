//===- tests/gc_test.cpp - Mark + sliding compaction ----------------------===//
//
// The collector's contract, straight from the paper: "Live objects are
// packed by sliding compaction, which does not change their internal order
// on the heap. Thus, the garbage collector usually preserves constant
// strides among the live objects." Order preservation is tested both
// directly and as a property over random object graphs.
//
//===----------------------------------------------------------------------===//

#include "support/SplitMix64.h"
#include "vm/GarbageCollector.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace spf;
using namespace spf::vm;

namespace {

class GcTest : public ::testing::Test {
protected:
  GcTest() {
    Node = Types.addClass("Node");
    FNext = Types.addField(Node, "next", ir::Type::Ref);
    FVal = Types.addField(Node, "val", ir::Type::I32);

    HeapConfig HC;
    HC.HeapBytes = 1 << 20;
    H = std::make_unique<Heap>(Types, HC);
  }

  Addr makeNode(int32_t V) {
    Addr A = H->allocObject(*Node);
    EXPECT_NE(A, 0u);
    H->store(A + FVal->Offset, ir::Type::I32, static_cast<uint64_t>(V));
    return A;
  }

  int32_t valOf(Addr A) {
    return static_cast<int32_t>(H->load(A + FVal->Offset, ir::Type::I32));
  }

  TypeTable Types;
  ClassDesc *Node;
  const FieldDesc *FNext;
  const FieldDesc *FVal;
  std::unique_ptr<Heap> H;
  GarbageCollector Gc;
};

TEST_F(GcTest, UnreachableObjectsAreReclaimed) {
  Addr Live = makeNode(1);
  makeNode(2); // Garbage.
  makeNode(3); // Garbage.
  uint64_t Before = H->bytesUsed();

  std::vector<Addr *> Roots = {&Live};
  GcStats S = Gc.collect(*H, Roots);

  EXPECT_EQ(S.LiveObjects, 1u);
  EXPECT_EQ(S.ReclaimedBytes, Before - S.LiveBytes);
  EXPECT_LT(H->bytesUsed(), Before);
  EXPECT_EQ(valOf(Live), 1);
}

TEST_F(GcTest, RootSlotsAreUpdatedWhenObjectsSlide) {
  makeNode(0); // Garbage in front: survivors must slide down.
  Addr A = makeNode(10);
  Addr B = makeNode(20);
  Addr OldA = A;

  std::vector<Addr *> Roots = {&A, &B};
  Gc.collect(*H, Roots);

  EXPECT_LT(A, OldA); // Slid down over the garbage.
  EXPECT_EQ(valOf(A), 10);
  EXPECT_EQ(valOf(B), 20);
}

TEST_F(GcTest, InteriorReferencesAreRewritten) {
  makeNode(0); // Garbage.
  Addr A = makeNode(1);
  makeNode(0); // Garbage.
  Addr B = makeNode(2);
  H->store(A + FNext->Offset, ir::Type::Ref, B);

  std::vector<Addr *> Roots = {&A};
  GcStats S = Gc.collect(*H, Roots);
  EXPECT_EQ(S.LiveObjects, 2u); // B reachable through A.

  Addr NewB = H->load(A + FNext->Offset, ir::Type::Ref);
  EXPECT_EQ(valOf(NewB), 2);
  EXPECT_TRUE(H->isObjectStart(NewB));
}

TEST_F(GcTest, RefArraysAreTraced) {
  Addr Arr = H->allocArray(ir::Type::Ref, 4);
  Addr N1 = makeNode(7);
  Addr N2 = makeNode(8);
  H->store(H->elemAddr(Arr, 0), ir::Type::Ref, N1);
  H->store(H->elemAddr(Arr, 3), ir::Type::Ref, N2);
  makeNode(0); // Garbage.

  std::vector<Addr *> Roots = {&Arr};
  GcStats S = Gc.collect(*H, Roots);
  EXPECT_EQ(S.LiveObjects, 3u);
  EXPECT_EQ(valOf(H->load(H->elemAddr(Arr, 0), ir::Type::Ref)), 7);
  EXPECT_EQ(valOf(H->load(H->elemAddr(Arr, 3), ir::Type::Ref)), 8);
  EXPECT_EQ(H->load(H->elemAddr(Arr, 1), ir::Type::Ref), 0u);
}

TEST_F(GcTest, PrimitiveArraysAreNotTracedButSurvive) {
  Addr Arr = H->allocArray(ir::Type::I64, 8);
  // Plant a value that looks like a heap address; a correct collector
  // must not interpret i64 payloads as references.
  Addr Fake = makeNode(42);
  H->store(H->elemAddr(Arr, 0), ir::Type::I64, Fake);

  std::vector<Addr *> Roots = {&Arr};
  GcStats S = Gc.collect(*H, Roots);
  EXPECT_EQ(S.LiveObjects, 1u); // Only the array; the node was garbage.
}

TEST_F(GcTest, StaticRefSlotsAreRootsAndUpdated) {
  Addr SlotAddr = H->allocStatic(ir::Type::Ref);
  makeNode(0); // Garbage ahead of the live node.
  Addr N = makeNode(5);
  H->store(SlotAddr, ir::Type::Ref, N);

  std::vector<Addr *> NoRoots;
  GcStats S = Gc.collect(*H, NoRoots);
  EXPECT_EQ(S.LiveObjects, 1u);
  Addr NewN = H->load(SlotAddr, ir::Type::Ref);
  EXPECT_EQ(valOf(NewN), 5);
}

TEST_F(GcTest, SlidingCompactionPreservesAddressOrderAndPitch) {
  // Allocate interleaved live/dead nodes; after collection the live ones
  // must keep their relative order AND (all being the same size) resume a
  // constant pitch — the paper's stride-preservation property.
  std::vector<Addr> Live;
  for (int I = 0; I < 32; ++I) {
    if (I % 2 == 0)
      Live.push_back(makeNode(I));
    else
      makeNode(-I); // Garbage.
  }

  std::vector<Addr *> Roots;
  for (Addr &A : Live)
    Roots.push_back(&A);
  Gc.collect(*H, Roots);

  for (size_t I = 1; I < Live.size(); ++I) {
    EXPECT_LT(Live[I - 1], Live[I]); // Order preserved.
    EXPECT_EQ(Live[I] - Live[I - 1], H->objectSize(Live[I - 1]));
  }
  for (size_t I = 0; I < Live.size(); ++I)
    EXPECT_EQ(valOf(Live[I]), static_cast<int32_t>(2 * I));
}

TEST_F(GcTest, CollectionIsIdempotentWhenEverythingLives) {
  Addr A = makeNode(1);
  Addr B = makeNode(2);
  std::vector<Addr *> Roots = {&A, &B};
  Gc.collect(*H, Roots);
  uint64_t Used = H->bytesUsed();
  Addr A1 = A, B1 = B;
  GcStats S = Gc.collect(*H, Roots);
  EXPECT_EQ(S.ReclaimedBytes, 0u);
  EXPECT_EQ(H->bytesUsed(), Used);
  EXPECT_EQ(A, A1);
  EXPECT_EQ(B, B1);
}

TEST_F(GcTest, CyclicGraphsAreCollectedCorrectly) {
  Addr A = makeNode(1);
  Addr B = makeNode(2);
  H->store(A + FNext->Offset, ir::Type::Ref, B);
  H->store(B + FNext->Offset, ir::Type::Ref, A); // Cycle.
  Addr C = makeNode(3);
  Addr D = makeNode(4);
  H->store(C + FNext->Offset, ir::Type::Ref, D);
  H->store(D + FNext->Offset, ir::Type::Ref, C); // Unreachable cycle.

  std::vector<Addr *> Roots = {&A};
  GcStats S = Gc.collect(*H, Roots);
  EXPECT_EQ(S.LiveObjects, 2u); // The reachable cycle only.
}

/// Property test: random object graphs survive collection with exactly
/// the reachable set, correct values, preserved order, and intact links.
TEST_F(GcTest, PropertyRandomGraphsSurviveCompaction) {
  SplitMix64 Rng(0xdecafbad);
  for (int Round = 0; Round < 20; ++Round) {
    HeapConfig HC;
    HC.HeapBytes = 1 << 20;
    Heap Local(Types, HC);

    const unsigned N = 200;
    std::vector<Addr> Nodes(N);
    for (unsigned I = 0; I != N; ++I) {
      Nodes[I] = Local.allocObject(*Node);
      Local.store(Nodes[I] + FVal->Offset, ir::Type::I32, I);
    }
    // Random links.
    for (unsigned I = 0; I != N; ++I)
      if (Rng.nextBelow(100) < 70)
        Local.store(Nodes[I] + FNext->Offset, ir::Type::Ref,
                    Nodes[Rng.nextBelow(N)]);

    // Random subset of roots.
    std::vector<Addr> RootVals;
    std::vector<unsigned> RootIdx;
    for (unsigned I = 0; I != N; ++I)
      if (Rng.nextBelow(100) < 10) {
        RootVals.push_back(Nodes[I]);
        RootIdx.push_back(I);
      }

    // Compute the expected reachable value set.
    std::vector<bool> Reach(N, false);
    std::vector<Addr> Work = RootVals;
    while (!Work.empty()) {
      Addr A = Work.back();
      Work.pop_back();
      unsigned Idx = static_cast<unsigned>(
          Local.load(A + FVal->Offset, ir::Type::I32));
      if (Reach[Idx])
        continue;
      Reach[Idx] = true;
      Addr Next = Local.load(A + FNext->Offset, ir::Type::Ref);
      if (Next)
        Work.push_back(Next);
    }
    uint64_t ExpectedLive = 0;
    for (bool R : Reach)
      ExpectedLive += R;

    std::vector<Addr *> Roots;
    for (Addr &A : RootVals)
      Roots.push_back(&A);
    GarbageCollector LocalGc;
    GcStats S = LocalGc.collect(Local, Roots);
    ASSERT_EQ(S.LiveObjects, ExpectedLive);

    // Roots still point at nodes with their original values; chase every
    // list and check values and ordering invariants.
    for (size_t R = 0; R + 1 < RootVals.size(); ++R) {
      if (RootIdx[R] < RootIdx[R + 1]) {
        EXPECT_LT(RootVals[R], RootVals[R + 1]); // Order preserved.
      }
    }
    for (size_t R = 0; R < RootVals.size(); ++R) {
      Addr Cur = RootVals[R];
      unsigned Hops = 0;
      while (Cur && Hops++ < N) {
        unsigned Idx = static_cast<unsigned>(
            Local.load(Cur + FVal->Offset, ir::Type::I32));
        ASSERT_LT(Idx, N);
        EXPECT_TRUE(Reach[Idx]);
        ASSERT_TRUE(Local.isObjectStart(Cur));
        Cur = Local.load(Cur + FNext->Offset, ir::Type::Ref);
      }
    }
  }
}

// -- Placement variants -----------------------------------------------------
//
// SlidingCompact is the paper's collector and keeps allocation-order
// strides (tested above). Each alternative placement policy must
// measurably break the property — that breakage is what the online
// prefetch-health governor (opt/Governor.h) exists to survive.

TEST_F(GcTest, VariantNamesRoundTrip) {
  for (GcVariant V :
       {GcVariant::SlidingCompact, GcVariant::MarkSweep,
        GcVariant::AddressShuffle, GcVariant::PromotionOrder})
    EXPECT_EQ(parseGcVariant(gcVariantName(V)), V);
  EXPECT_FALSE(parseGcVariant("copying").has_value());
}

TEST_F(GcTest, MarkSweepLeavesLiveObjectsInPlace) {
  // Interleaved live/dead: sliding compaction would close the gaps and
  // restore a constant pitch; mark-sweep must leave every survivor at
  // its old address, so the post-GC pitch keeps the pre-GC holes.
  std::vector<Addr> Live;
  for (int I = 0; I < 16; ++I) {
    if (I % 2 == 0)
      Live.push_back(makeNode(I));
    else
      makeNode(-I); // Garbage.
  }
  std::vector<Addr> Before = Live;
  Addr OldTop = H->heapTop();

  Gc.setVariant(GcVariant::MarkSweep);
  std::vector<Addr *> Roots;
  for (Addr &A : Live)
    Roots.push_back(&A);
  GcStats S = Gc.collect(*H, Roots);

  EXPECT_EQ(S.LiveObjects, Live.size());
  EXPECT_GT(S.ReclaimedBytes, 0u);
  EXPECT_EQ(H->heapTop(), OldTop); // Frontier untouched: nothing moved.
  for (size_t I = 0; I < Live.size(); ++I) {
    EXPECT_EQ(Live[I], Before[I]); // In place.
    EXPECT_EQ(valOf(Live[I]), static_cast<int32_t>(2 * I));
  }
  // The inter-object pitch keeps the dead holes: twice the sliding-
  // compacted pitch here, so a stride plan fit to compacted order would
  // now be wrong.
  for (size_t I = 1; I < Live.size(); ++I)
    EXPECT_EQ(Live[I] - Live[I - 1], 2 * H->objectSize(Live[I - 1]));
  EXPECT_FALSE(H->freeList().empty());
}

TEST_F(GcTest, MarkSweepHolesAreReusedByAllocation) {
  std::vector<Addr> Live;
  for (int I = 0; I < 16; ++I) {
    if (I % 2 == 0)
      Live.push_back(makeNode(I));
    else
      makeNode(-I); // Garbage.
  }
  Gc.setVariant(GcVariant::MarkSweep);
  std::vector<Addr *> Roots;
  for (Addr &A : Live)
    Roots.push_back(&A);
  Gc.collect(*H, Roots);

  Addr Top = H->heapTop();
  Addr Reused = makeNode(99);
  EXPECT_LT(Reused, Top); // First-fit from a hole, not the frontier.
  EXPECT_EQ(H->heapTop(), Top);
  EXPECT_EQ(valOf(Reused), 99);
}

TEST_F(GcTest, AllocationOverDirtyArenaBytesReadsZero) {
  // The arena is zeroed only lazily, once, by the OS; bytes a dead object
  // left behind are reused after compaction, so allocation itself must
  // zero them.
  Addr Live = makeNode(7);
  for (int I = 0; I < 32; ++I) {
    Addr A = makeNode(-1 - I);
    H->store(A + FNext->Offset, ir::Type::Ref, ~uint64_t(0));
    Addr Arr = H->allocArray(ir::Type::I64, 5);
    for (uint64_t E = 0; E != 5; ++E)
      H->store(H->elemAddr(Arr, E), ir::Type::I64, ~uint64_t(0));
  }
  Addr OldTop = H->heapTop();
  std::vector<Addr *> Roots = {&Live};
  Gc.collect(*H, Roots); // Sliding compaction: the garbage stays dirty.
  ASSERT_LT(H->heapTop(), OldTop);

  for (int I = 0; I < 32; ++I) {
    Addr N = H->allocObject(*Node);
    ASSERT_LT(N, OldTop);
    EXPECT_EQ(H->load(N + FNext->Offset, ir::Type::Ref), 0u);
    EXPECT_EQ(valOf(N), 0);
    Addr Arr = H->allocArray(ir::Type::I64, 5);
    ASSERT_LT(Arr, OldTop);
    EXPECT_EQ(H->arrayLength(Arr), 5u);
    for (uint64_t E = 0; E != 5; ++E)
      EXPECT_EQ(H->load(H->elemAddr(Arr, E), ir::Type::I64), 0u);
  }
  EXPECT_EQ(valOf(Live), 7);
}

TEST_F(GcTest, AddressShuffleBreaksLiveObjectOrder) {
  std::vector<Addr> Live;
  for (int I = 0; I < 64; ++I)
    Live.push_back(makeNode(I));

  Gc.setVariant(GcVariant::AddressShuffle, /*Seed=*/42);
  Gc.setShuffleWindow(8);
  std::vector<Addr *> Roots;
  for (Addr &A : Live)
    Roots.push_back(&A);
  GcStats S = Gc.collect(*H, Roots);
  EXPECT_EQ(S.LiveObjects, Live.size());

  // Values survive and the heap is still densely packed...
  std::vector<Addr> Sorted = Live;
  std::sort(Sorted.begin(), Sorted.end());
  for (size_t I = 1; I < Sorted.size(); ++I)
    EXPECT_EQ(Sorted[I] - Sorted[I - 1], H->objectSize(Sorted[I - 1]));
  for (size_t I = 0; I < Live.size(); ++I)
    EXPECT_EQ(valOf(Live[I]), static_cast<int32_t>(I));
  // ...but allocation order no longer matches address order: the
  // constant stride the inspector fit before the collection is gone.
  unsigned Inversions = 0;
  for (size_t I = 1; I < Live.size(); ++I)
    Inversions += Live[I] < Live[I - 1];
  EXPECT_GT(Inversions, 0u);
}

TEST_F(GcTest, AddressShuffleIsDeterministicPerSeedAndCollection) {
  auto RunOnce = [&](uint64_t Seed) {
    HeapConfig HC;
    HC.HeapBytes = 1 << 20;
    Heap Local(Types, HC);
    std::vector<Addr> Live;
    for (int I = 0; I < 32; ++I) {
      Live.push_back(Local.allocObject(*Node));
      Local.store(Live.back() + FVal->Offset, ir::Type::I32,
                  static_cast<uint64_t>(I));
    }
    GarbageCollector LocalGc;
    LocalGc.setVariant(GcVariant::AddressShuffle, Seed);
    LocalGc.setShuffleWindow(8);
    std::vector<Addr *> Roots;
    for (Addr &A : Live)
      Roots.push_back(&A);
    LocalGc.collect(Local, Roots);
    return Live;
  };
  EXPECT_EQ(RunOnce(7), RunOnce(7));   // Same seed: same permutation.
  EXPECT_NE(RunOnce(7), RunOnce(8));   // Different seed: different one.
}

TEST_F(GcTest, PromotionOrderPlacesInDiscoveryOrder) {
  // Build a chain whose link order is the *reverse* of allocation order:
  // node I points at node I-1, the root holds the last node. Discovery
  // (promotion) order is then chain order, so after collection the chain
  // runs in ascending address order — the opposite of what sliding
  // compaction (allocation order) would produce.
  const int N = 16;
  std::vector<Addr> Nodes;
  for (int I = 0; I < N; ++I) {
    Nodes.push_back(makeNode(I));
    if (I > 0)
      H->store(Nodes[I] + FNext->Offset, ir::Type::Ref, Nodes[I - 1]);
  }
  Addr Root = Nodes.back();

  Gc.setVariant(GcVariant::PromotionOrder);
  std::vector<Addr *> Roots = {&Root};
  GcStats S = Gc.collect(*H, Roots);
  EXPECT_EQ(S.LiveObjects, static_cast<uint64_t>(N));

  EXPECT_EQ(Root, H->heapBase()); // First discovered object placed first.
  Addr Cur = Root;
  int Hops = 0;
  int32_t Expect = N - 1;
  while (Cur) {
    EXPECT_EQ(valOf(Cur), Expect--);
    Addr Next = H->load(Cur + FNext->Offset, ir::Type::Ref);
    if (Next) {
      EXPECT_GT(Next, Cur); // Chain order == address order now.
    }
    Cur = Next;
    ASSERT_LE(++Hops, N);
  }
  EXPECT_EQ(Hops, N);
}

TEST_F(GcTest, PropertyVariantsPreserveReachabilityAndValues) {
  // Placement changes, semantics must not: every variant keeps exactly
  // the reachable set with intact values and links.
  SplitMix64 Rng(0xfeedface);
  for (GcVariant V : {GcVariant::MarkSweep, GcVariant::AddressShuffle,
                      GcVariant::PromotionOrder}) {
    for (int Round = 0; Round < 5; ++Round) {
      HeapConfig HC;
      HC.HeapBytes = 1 << 20;
      Heap Local(Types, HC);
      const unsigned N = 100;
      std::vector<Addr> Nodes(N);
      for (unsigned I = 0; I != N; ++I) {
        Nodes[I] = Local.allocObject(*Node);
        Local.store(Nodes[I] + FVal->Offset, ir::Type::I32, I);
      }
      for (unsigned I = 0; I != N; ++I)
        if (Rng.nextBelow(100) < 70)
          Local.store(Nodes[I] + FNext->Offset, ir::Type::Ref,
                      Nodes[Rng.nextBelow(N)]);
      std::vector<Addr> RootVals;
      for (unsigned I = 0; I != N; ++I)
        if (Rng.nextBelow(100) < 15)
          RootVals.push_back(Nodes[I]);

      std::vector<bool> Reach(N, false);
      std::vector<Addr> Work = RootVals;
      while (!Work.empty()) {
        Addr A = Work.back();
        Work.pop_back();
        unsigned Idx = static_cast<unsigned>(
            Local.load(A + FVal->Offset, ir::Type::I32));
        if (Reach[Idx])
          continue;
        Reach[Idx] = true;
        if (Addr Next = Local.load(A + FNext->Offset, ir::Type::Ref))
          Work.push_back(Next);
      }
      uint64_t ExpectedLive = 0;
      for (bool R : Reach)
        ExpectedLive += R;

      GarbageCollector LocalGc;
      LocalGc.setVariant(V, Round);
      std::vector<Addr *> Roots;
      for (Addr &A : RootVals)
        Roots.push_back(&A);
      GcStats S = LocalGc.collect(Local, Roots);
      ASSERT_EQ(S.LiveObjects, ExpectedLive) << gcVariantName(V);

      for (Addr Cur : RootVals) {
        unsigned Hops = 0;
        while (Cur && Hops++ < N) {
          ASSERT_TRUE(Local.isObjectStart(Cur)) << gcVariantName(V);
          unsigned Idx = static_cast<unsigned>(
              Local.load(Cur + FVal->Offset, ir::Type::I32));
          ASSERT_LT(Idx, N);
          EXPECT_TRUE(Reach[Idx]) << gcVariantName(V);
          Cur = Local.load(Cur + FNext->Offset, ir::Type::Ref);
        }
      }
    }
  }
}

// -- Watchdog checkpoints ---------------------------------------------------

TEST_F(GcTest, CheckpointFiresDuringCollection) {
  // Enough objects that every phase loop crosses the poll interval at
  // least once (the interval is 4096 work items; 5000 objects x 5 phases
  // gives several firings).
  std::vector<Addr> Keep;
  for (int I = 0; I != 5000; ++I)
    Keep.push_back(makeNode(I));

  unsigned Fired = 0;
  Gc.setCheckpoint([&Fired] { ++Fired; });
  std::vector<Addr *> Roots;
  for (Addr &A : Keep)
    Roots.push_back(&A);
  GcStats S = Gc.collect(*H, Roots);

  EXPECT_EQ(S.LiveObjects, 5000u);
  EXPECT_GT(Fired, 0u);
}

TEST_F(GcTest, CheckpointFiresDuringEveryVariantPhase) {
  // The watchdog contract extends to the new placement policies: the
  // sweep loop, the shuffle permutation, and the scratch-copy placement
  // all poll the checkpoint, so a cell stuck in a perturbing collection
  // still observes its deadline.
  for (GcVariant V : {GcVariant::MarkSweep, GcVariant::AddressShuffle,
                      GcVariant::PromotionOrder}) {
    HeapConfig HC;
    HC.HeapBytes = 4u << 20;
    Heap Local(Types, HC);
    std::vector<Addr> Keep;
    for (int I = 0; I != 5000; ++I) {
      Addr A = Local.allocObject(*Node);
      ASSERT_NE(A, 0u);
      Keep.push_back(A);
    }
    unsigned Fired = 0;
    GarbageCollector LocalGc;
    LocalGc.setVariant(V, /*Seed=*/1);
    LocalGc.setCheckpoint([&Fired] { ++Fired; });
    std::vector<Addr *> Roots;
    for (Addr &A : Keep)
      Roots.push_back(&A);
    GcStats S = LocalGc.collect(Local, Roots);
    EXPECT_EQ(S.LiveObjects, 5000u) << gcVariantName(V);
    EXPECT_GT(Fired, 0u) << gcVariantName(V);
  }
}

TEST_F(GcTest, ThrowingCheckpointAbandonsCollection) {
  // The interpreter's deadline hook throws support::CellTimeout; any
  // exception must propagate out of collect() instead of being swallowed
  // (the harness discards the heap afterwards, so a half-compacted heap
  // is fine).
  struct DeadlineHit {};
  std::vector<Addr> Keep;
  for (int I = 0; I != 5000; ++I)
    Keep.push_back(makeNode(I));

  Gc.setCheckpoint([] { throw DeadlineHit(); });
  std::vector<Addr *> Roots;
  for (Addr &A : Keep)
    Roots.push_back(&A);
  EXPECT_THROW(Gc.collect(*H, Roots), DeadlineHit);

  // Clearing the hook restores normal operation on a fresh heap.
  Gc.setCheckpoint(nullptr);
  HeapConfig HC;
  HC.HeapBytes = 1 << 20;
  Heap Fresh(Types, HC);
  Addr Live = Fresh.allocObject(*Node);
  std::vector<Addr *> FreshRoots = {&Live};
  GcStats S = Gc.collect(Fresh, FreshRoots);
  EXPECT_EQ(S.LiveObjects, 1u);
}

} // namespace
