//===- tests/sim_test.cpp - Cache, TLB, prefetcher, memory system ---------===//

#include "sim/EventBuffer.h"
#include "sim/MemorySystem.h"
#include "support/SplitMix64.h"
#include "workloads/Runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

using namespace spf;
using namespace spf::sim;

namespace {

TEST(CacheTest, ColdMissThenHit) {
  Cache C(CacheParams{1024, 64, 2});
  EXPECT_FALSE(C.access(0x1000, 0).Hit);
  EXPECT_TRUE(C.access(0x1000, 1).Hit);
  EXPECT_TRUE(C.access(0x103F, 2).Hit); // Same line.
  EXPECT_FALSE(C.access(0x1040, 3).Hit); // Next line.
}

TEST(CacheTest, LruEvictionWithinSet) {
  // 2-way, 64B lines, 1024B => 8 sets. Lines mapping to set 0: multiples
  // of 8 lines = 512 bytes.
  Cache C(CacheParams{1024, 64, 2});
  EXPECT_FALSE(C.access(0 * 512, 0).Hit);
  EXPECT_FALSE(C.access(1 * 512, 1).Hit);
  EXPECT_TRUE(C.access(0 * 512, 2).Hit); // 0 now MRU.
  EXPECT_FALSE(C.access(2 * 512, 3).Hit); // Evicts 1 (LRU).
  EXPECT_TRUE(C.access(0 * 512, 4).Hit);
  EXPECT_FALSE(C.access(1 * 512, 5).Hit); // 1 was evicted.
}

TEST(CacheTest, PrefetchFillMakesDemandHit) {
  Cache C(CacheParams{1024, 64, 2});
  C.prefetchFill(0x2000, /*ReadyAt=*/0);
  EXPECT_TRUE(C.contains(0x2000));
  auto R = C.access(0x2000, 100);
  EXPECT_TRUE(R.Hit);
  EXPECT_EQ(R.WaitCycles, 0u);
}

TEST(CacheTest, LatePrefetchChargesRemainingLatency) {
  Cache C(CacheParams{1024, 64, 2});
  C.prefetchFill(0x2000, /*ReadyAt=*/150);
  auto R = C.access(0x2000, 100); // 50 cycles early.
  EXPECT_TRUE(R.Hit);
  EXPECT_EQ(R.WaitCycles, 50u);
  // Once waited for, the line is ready: one late probe in all.
  auto R2 = C.access(0x2000, 101);
  EXPECT_TRUE(R2.Hit);
  EXPECT_EQ(R2.WaitCycles, 0u);
}

TEST(CacheTest, ContainsDoesNotTouchLru) {
  Cache C(CacheParams{128, 64, 2}); // 1 set, 2 ways.
  C.access(0, 0);
  C.access(64, 1);
  EXPECT_TRUE(C.contains(0));
  EXPECT_TRUE(C.contains(128) == false);
  // `contains` must not have promoted line 0: accessing a new line evicts
  // the true LRU (line 0).
  C.access(128, 2);
  EXPECT_FALSE(C.contains(0));
  EXPECT_TRUE(C.contains(64));
}

/// Parameterized sweep: for a working set twice the cache size, a
/// sequential scan must miss on every distinct line regardless of
/// geometry; for half the cache size, the second pass must fully hit.
struct CacheGeom {
  uint64_t Size;
  unsigned Line;
  unsigned Assoc;
};

class CacheSweepTest : public ::testing::TestWithParam<CacheGeom> {};

TEST_P(CacheSweepTest, SequentialScanObeysCapacity) {
  CacheGeom G = GetParam();
  Cache C(CacheParams{G.Size, G.Line, G.Assoc});

  // Pass 1 over half the cache: all cold misses.
  uint64_t Lines = G.Size / G.Line / 2;
  uint64_t Misses = 0;
  for (uint64_t I = 0; I != Lines; ++I)
    Misses += !C.access(I * G.Line, I).Hit;
  EXPECT_EQ(Misses, Lines);
  // Pass 2: everything fits; zero new misses.
  for (uint64_t I = 0; I != Lines; ++I)
    EXPECT_TRUE(C.access(I * G.Line, 1000 + I).Hit);

  // A scan of twice the capacity leaves nothing reusable: a second pass
  // over it misses every line again (LRU + power-of-two strides).
  Cache C2(CacheParams{G.Size, G.Line, G.Assoc});
  uint64_t Big = G.Size / G.Line * 2;
  uint64_t BigMisses = 0;
  for (int Pass = 0; Pass != 2; ++Pass)
    for (uint64_t I = 0; I != Big; ++I)
      BigMisses += !C2.access(I * G.Line, I).Hit;
  EXPECT_EQ(BigMisses, 2 * Big);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheSweepTest,
    ::testing::Values(CacheGeom{8 * 1024, 64, 4},    // P4 L1
                      CacheGeom{256 * 1024, 128, 8}, // P4 L2
                      CacheGeom{64 * 1024, 64, 2},   // Athlon L1
                      CacheGeom{256 * 1024, 64, 16}, // Athlon L2
                      CacheGeom{1024, 32, 1},        // Direct-mapped
                      CacheGeom{4096, 64, 64}));     // Fully associative

TEST(TlbTest, MissFillsEntry) {
  Tlb T(4, 4096);
  EXPECT_FALSE(T.access(0x1000));
  EXPECT_TRUE(T.access(0x1FFF)); // Same page.
  EXPECT_FALSE(T.access(0x2000));
}

TEST(TlbTest, LruEvictionAcrossCapacity) {
  Tlb T(2, 4096);
  T.access(0x0000);  // Page 0.
  T.access(0x1000);  // Page 1.
  T.access(0x0000);  // Page 0 -> MRU.
  T.access(0x2000);  // Page 2: evicts page 1.
  EXPECT_TRUE(T.contains(0x0000));
  EXPECT_FALSE(T.contains(0x1000));
  EXPECT_TRUE(T.contains(0x2000));
}

TEST(TlbTest, FillPrimesTheEntry) {
  Tlb T(4, 4096);
  T.fill(0x5000); // TLB priming (guarded load).
  EXPECT_TRUE(T.contains(0x5000));
  EXPECT_TRUE(T.access(0x5000));
}

/// The classic linked-list LRU the TLB must match exactly: most recent
/// page at the front.
class ListLruTlb {
public:
  explicit ListLruTlb(size_t Entries) : Entries(Entries) {}

  bool access(uint64_t Page) { return touch(Page); }
  void fill(uint64_t Page) { touch(Page); }
  bool contains(uint64_t Page) const {
    return std::find(Pages.begin(), Pages.end(), Page) != Pages.end();
  }
  void reset() { Pages.clear(); }
  const std::list<uint64_t> &pages() const { return Pages; }

private:
  bool touch(uint64_t Page) {
    auto It = std::find(Pages.begin(), Pages.end(), Page);
    if (It != Pages.end()) {
      Pages.splice(Pages.begin(), Pages, It);
      return true;
    }
    Pages.push_front(Page);
    if (Pages.size() > Entries)
      Pages.pop_back();
    return false;
  }

  size_t Entries;
  std::list<uint64_t> Pages;
};

class TlbModelTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(TlbModelTest, MatchesListLruUnderRandomTraffic) {
  const unsigned Entries = GetParam();
  const uint64_t PageBytes = 4096;
  // Three times the capacity in distinct pages: steady misses evict,
  // and the tombstones they leave force repeated table rebuilds.
  const uint64_t Universe = 3 * uint64_t(Entries) + 2;
  Tlb T(Entries, PageBytes);
  ListLruTlb Ref(Entries);
  SplitMix64 Rng(0x5eed0000 + Entries);
  uint64_t Hot = 0;
  for (unsigned Op = 0; Op != 6000; ++Op) {
    // Half the traffic revisits a sliding window about the TLB's size,
    // so hits, re-ordering and LRU victims all matter.
    uint64_t Page = Rng.nextBelow(2) ? (Hot + Rng.nextBelow(Entries + 1)) %
                                           Universe
                                     : Rng.nextBelow(Universe);
    Hot = (Hot + Rng.nextBelow(3)) % Universe;
    uint64_t Addr = Page * PageBytes + Rng.nextBelow(PageBytes);
    uint64_t Kind = Rng.nextBelow(1000);
    if (Kind < 700) {
      ASSERT_EQ(T.access(Addr), Ref.access(Page)) << "op " << Op;
    } else if (Kind < 850) {
      T.fill(Addr);
      Ref.fill(Page);
    } else if (Kind < 998) {
      ASSERT_EQ(T.contains(Addr), Ref.contains(Page)) << "op " << Op;
    } else {
      T.reset();
      Ref.reset();
    }
    std::vector<bool> Resident(Universe);
    for (uint64_t P : Ref.pages())
      Resident[P] = true;
    for (uint64_t P = 0; P != Universe; ++P)
      ASSERT_EQ(T.contains(P * PageBytes), Resident[P])
          << "page " << P << " after op " << Op;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TlbModelTest,
                         ::testing::Values(1u, 2u, 3u, 64u, 256u));

/// A timestamp LRU cache, the textbook way: every way carries the clock
/// of its last use, and a fill takes the first invalid way, else the
/// least recently used one. Tags, ready-cycles and the resolution of
/// tagged fills follow Cache's documented contract.
class StampLruCache {
public:
  struct Resolution {
    bool Used; ///< Served a demand hit (else evicted unused).
    PfTag Kind;
    uint32_t Site;
    bool Late;
    bool operator==(const Resolution &) const = default;
  };

  StampLruCache(unsigned Sets, unsigned Assoc, bool Tracked)
      : Sets(Sets), Assoc(Assoc), Tracked(Tracked), Ways(Sets * Assoc) {}

  CacheAccessResult access(uint64_t Line, uint64_t Now) {
    CacheAccessResult R;
    if (Way *W = find(Line)) {
      W->LastUse = ++Clock;
      R.Hit = true;
      if (W->Ready > Now) {
        R.WaitCycles = W->Ready - Now;
        W->Ready = 0;
      }
      if (W->Kind != PfTag::None) {
        Resolved.push_back({true, W->Kind, W->Site, R.WaitCycles != 0});
        W->Kind = PfTag::None;
      }
      return R;
    }
    install(Line, 0, PfTag::None, 0);
    return R;
  }

  void prefetchFill(uint64_t Line, uint64_t Ready, PfTag Kind, uint32_t Site) {
    if (Way *W = find(Line)) {
      W->LastUse = ++Clock;
      return;
    }
    install(Line, Ready, Tracked ? Kind : PfTag::None, Site);
  }

  bool contains(uint64_t Line) const {
    const Way *Set = &Ways[(Line % Sets) * Assoc];
    return std::any_of(Set, Set + Assoc, [&](const Way &W) {
      return W.Valid && W.Line == Line;
    });
  }

  void reset() { std::fill(Ways.begin(), Ways.end(), Way{}); }

  std::vector<Resolution> Resolved;

private:
  struct Way {
    bool Valid = false;
    uint64_t Line = 0;
    uint64_t LastUse = 0;
    uint64_t Ready = 0;
    PfTag Kind = PfTag::None;
    uint32_t Site = 0;
  };

  Way *find(uint64_t Line) {
    Way *Set = &Ways[(Line % Sets) * Assoc];
    for (unsigned I = 0; I != Assoc; ++I)
      if (Set[I].Valid && Set[I].Line == Line)
        return &Set[I];
    return nullptr;
  }

  void install(uint64_t Line, uint64_t Ready, PfTag Kind, uint32_t Site) {
    Way *Set = &Ways[(Line % Sets) * Assoc];
    Way *Victim = nullptr;
    for (unsigned I = 0; I != Assoc && !Victim; ++I)
      if (!Set[I].Valid)
        Victim = &Set[I];
    if (!Victim) {
      Victim = Set;
      for (unsigned I = 1; I != Assoc; ++I)
        if (Set[I].LastUse < Victim->LastUse)
          Victim = &Set[I];
      if (Victim->Kind != PfTag::None)
        Resolved.push_back({false, Victim->Kind, Victim->Site, false});
    }
    *Victim = Way{true, Line, ++Clock, Ready, Kind, Site};
  }

  unsigned Sets, Assoc;
  bool Tracked;
  std::vector<Way> Ways;
  uint64_t Clock = 0;
};

/// Records the tag resolutions a Cache reports.
class ResolutionLog final : public PrefetchTagObserver {
public:
  void prefetchedLineUsed(PfTag Kind, uint32_t Site, bool Late) override {
    Resolved.push_back({true, Kind, Site, Late});
  }
  void prefetchedLineEvicted(PfTag Kind, uint32_t Site) override {
    Resolved.push_back({false, Kind, Site, false});
  }
  std::vector<StampLruCache::Resolution> Resolved;
};

class CacheModelTest
    : public ::testing::TestWithParam<std::tuple<unsigned, bool>> {};

TEST_P(CacheModelTest, MatchesTimestampLruUnderRandomTraffic) {
  const auto [Assoc, Tracked] = GetParam();
  const unsigned Sets = 4, LineBytes = 64;
  // Three times the capacity in distinct lines: fills keep evicting, and
  // a hot window about the capacity's size keeps recency order relevant.
  const uint64_t Universe = 3 * uint64_t(Sets) * Assoc + 1;
  Cache C(CacheParams{uint64_t(Sets) * Assoc * LineBytes, LineBytes, Assoc});
  ResolutionLog Log;
  if (Tracked)
    C.setTagObserver(Log);
  StampLruCache Ref(Sets, Assoc, Tracked);
  SplitMix64 Rng(0xcace0000 + Assoc * 2 + Tracked);
  uint64_t Hot = 0, Now = 0;
  for (unsigned Op = 0; Op != 8000; ++Op) {
    uint64_t Line = Rng.nextBelow(2)
                        ? (Hot + Rng.nextBelow(Sets * Assoc + 1)) % Universe
                        : Rng.nextBelow(Universe);
    Hot = (Hot + Rng.nextBelow(3)) % Universe;
    Now += Rng.nextBelow(8);
    uint64_t Addr = Line * LineBytes + Rng.nextBelow(LineBytes);
    uint64_t Kind = Rng.nextBelow(1000);
    if (Kind < 550) {
      CacheAccessResult Got = C.access(Addr, Now);
      CacheAccessResult Want = Ref.access(Line, Now);
      ASSERT_EQ(Got.Hit, Want.Hit) << "op " << Op;
      ASSERT_EQ(Got.WaitCycles, Want.WaitCycles) << "op " << Op;
    } else if (Kind < 850) {
      // Tagged and untagged fills, some still in flight when demanded.
      PfTag Tag = static_cast<PfTag>(Rng.nextBelow(3));
      uint32_t Site = static_cast<uint32_t>(Rng.nextBelow(5));
      uint64_t Ready = Now + Rng.nextBelow(40);
      C.prefetchFill(Addr, Ready, Tag, Site);
      Ref.prefetchFill(Line, Ready, Tag, Site);
    } else if (Kind < 998) {
      ASSERT_EQ(C.contains(Addr), Ref.contains(Line)) << "op " << Op;
    } else {
      C.reset();
      Ref.reset();
    }
    ASSERT_EQ(Log.Resolved, Ref.Resolved) << "op " << Op;
    for (uint64_t L = 0; L != Universe; ++L)
      ASSERT_EQ(C.contains(L * LineBytes), Ref.contains(L))
          << "line " << L << " after op " << Op;
  }
  if (Tracked) {
    EXPECT_TRUE(std::any_of(Log.Resolved.begin(), Log.Resolved.end(),
                            [](const auto &R) { return R.Used && R.Late; }));
    EXPECT_TRUE(std::any_of(Log.Resolved.begin(), Log.Resolved.end(),
                            [](const auto &R) { return !R.Used; }));
  } else {
    EXPECT_TRUE(Ref.Resolved.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheModelTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u, 16u),
                       ::testing::Bool()));

/// One AccessSink call of a recorded stream.
struct StreamEvent {
  MemoryEvent::Kind K;
  uint64_t Value; ///< Address, or the tick count of a Tick.
  exec::SiteId Site;
  uint16_t Owner;
};

/// Replays \p E on \p S as the interpreter would: ticks and demand
/// events through the owner-0 sink, prefetch-kind ones through their
/// owner's.
void replay(const StreamEvent &E, exec::AccessSink &S) {
  switch (E.K) {
  case MemoryEvent::Tick:
    S.tick(E.Value);
    break;
  case MemoryEvent::Load:
    S.load(E.Value, E.Site);
    break;
  case MemoryEvent::Store:
    S.store(E.Value);
    break;
  case MemoryEvent::Prefetch:
    S.prefetch(E.Value, E.Site);
    break;
  case MemoryEvent::GuardedLoad:
    S.guardedLoad(E.Value, E.Site);
    break;
  case MemoryEvent::GuardedLoadFault:
    S.guardedLoadFault(E.Site);
    break;
  }
}

/// A mixed stream over a few hundred KB: tick runs of every length (one
/// past 32 bits), demand loads and stores, and the prefetch-kind events
/// of owners 0, 1 and 2, ending in a run of ticks.
std::vector<StreamEvent> mixedStream(uint64_t Seed) {
  SplitMix64 Rng(Seed);
  std::vector<StreamEvent> Out;
  uint64_t Cursor = 0x100000;
  for (unsigned I = 0; I != 20000; ++I) {
    uint64_t Addr = Rng.nextBelow(4) ? Cursor + Rng.nextBelow(256)
                                     : 0x100000 + Rng.nextBelow(1 << 19);
    Cursor += Rng.nextBelow(96);
    exec::SiteId Site = static_cast<exec::SiteId>(Rng.nextBelow(12));
    uint16_t Owner = static_cast<uint16_t>(Rng.nextBelow(3));
    uint64_t Kind = Rng.nextBelow(100);
    if (Kind < 30)
      Out.push_back({MemoryEvent::Tick,
                     I == 7 ? (uint64_t(1) << 32) + 3 : 1 + Rng.nextBelow(9),
                     0, 0});
    else if (Kind < 65)
      Out.push_back({MemoryEvent::Load, Addr, Site, 0});
    else if (Kind < 78)
      Out.push_back({MemoryEvent::Store, Addr, 0, 0});
    else if (Kind < 88)
      Out.push_back({MemoryEvent::Prefetch, Addr + 512, Site, Owner});
    else if (Kind < 96)
      Out.push_back({MemoryEvent::GuardedLoad, Addr + 1024, Site, Owner});
    else
      Out.push_back({MemoryEvent::GuardedLoadFault, 0, Site, Owner});
  }
  for (unsigned I = 0; I != 5; ++I)
    Out.push_back({MemoryEvent::Tick, 1 + I, 0, 0});
  return Out;
}

class BufferedDeliveryTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BufferedDeliveryTest, EqualsDirectCalls) {
  // Each machine is simulated twice per owner 1 and 2: once by direct
  // AccessSink calls carrying only what that owner's simulator would be
  // sent, once through one shared buffer that feeds both owners'.
  const std::vector<StreamEvent> Stream = mixedStream(0xb0ff + GetParam());
  for (const char *Name : {"pentium4", "athlonmp", "modern3l"}) {
    const MachineConfig M = *MachineConfig::byName(Name);
    EventBuffer Buffer(/*Owners=*/3, GetParam());
    std::vector<std::unique_ptr<MemorySystem>> Direct, Buffered;
    for (unsigned Owner : {1u, 2u}) {
      Direct.push_back(std::make_unique<MemorySystem>(M));
      Buffered.push_back(std::make_unique<MemorySystem>(M));
      if (Owner == 2) { // Health tracking on one pair: the tagged paths.
        Direct.back()->enablePrefetchHealth();
        Buffered.back()->enablePrefetchHealth();
      }
      Buffer.addTarget(*Buffered.back(), Owner);
    }
    for (const StreamEvent &E : Stream) {
      for (unsigned Owner : {1u, 2u})
        if (E.Owner == 0 || E.Owner == Owner)
          replay(E, *Direct[Owner - 1]);
      replay(E, Buffer.sink(E.Owner));
    }
    Buffer.drain();
    for (size_t I = 0; I != Direct.size(); ++I) {
      const std::string Tag =
          std::string(Name) + " owner " + std::to_string(I + 1);
      EXPECT_EQ(Buffered[I]->cycles(), Direct[I]->cycles()) << Tag;
      EXPECT_EQ(Buffered[I]->stats(), Direct[I]->stats()) << Tag;
      EXPECT_EQ(Buffered[I]->acct(), Direct[I]->acct()) << Tag;
      EXPECT_EQ(Buffered[I]->siteStats(), Direct[I]->siteStats()) << Tag;
    }
    // The stream exercised what it is meant to.
    EXPECT_GT(Direct[0]->stats().SwPrefetchesIssued, 0u) << Name;
    EXPECT_GT(Direct[1]->stats().SwPrefetchesUseful, 0u) << Name;
    EXPECT_NE(Direct[0]->cycles(), Direct[1]->cycles()) << Name;
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, BufferedDeliveryTest,
                         ::testing::Values(size_t(1), size_t(2), size_t(7),
                                           EventBuffer::DefaultCapacity));

TEST(HwPrefetcherTest, ConfirmedStreamEmitsNextLines) {
  HardwarePrefetcher P(4, 2, 64, 4096);
  std::vector<uint64_t> Out;
  P.onDemandMiss(0 * 64, Out); // Allocates stream, predicts line 1.
  EXPECT_TRUE(Out.empty());
  P.onDemandMiss(1 * 64, Out); // Confirms: prefetch lines 2 and 3.
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_EQ(Out[0], 2u * 64);
  EXPECT_EQ(Out[1], 3u * 64);
}

TEST(HwPrefetcherTest, RandomMissesNeverConfirm) {
  HardwarePrefetcher P(4, 2, 64, 4096);
  std::vector<uint64_t> Out;
  uint64_t Addrs[] = {0, 5 * 64, 17 * 64, 3 * 64, 40 * 64, 11 * 64};
  for (uint64_t A : Addrs)
    P.onDemandMiss(A, Out);
  EXPECT_TRUE(Out.empty());
}

TEST(HwPrefetcherTest, StreamsStopAtPageBoundary) {
  HardwarePrefetcher P(4, 4, 64, 4096);
  std::vector<uint64_t> Out;
  // Lines 62, 63 are at the end of page 0 (64 lines per page).
  P.onDemandMiss(62 * 64, Out);
  P.onDemandMiss(63 * 64, Out);
  // Degree 4 would reach lines 64..67, all in page 1: none allowed.
  EXPECT_TRUE(Out.empty());
}

class MemorySystemTest : public ::testing::Test {
protected:
  MemorySystemTest() : Mem((*MachineConfig::byName("pentium4"))) {}
  MemorySystem Mem;
};

TEST_F(MemorySystemTest, ComputeTicksAdvanceClock) {
  Mem.tick(10);
  EXPECT_EQ(Mem.cycles(), 10u);
}

TEST_F(MemorySystemTest, ColdLoadPaysFullPenaltyThenHitsL1) {
  const MachineConfig &C = Mem.config();
  Mem.load(0x100000);
  uint64_t Cold = Mem.cycles();
  EXPECT_EQ(Cold, C.Levels[0].HitCycles + C.TlbMissPenalty +
                      C.Levels[1].HitCycles + C.MemPenalty);
  Mem.load(0x100000);
  EXPECT_EQ(Mem.cycles() - Cold, C.Levels[0].HitCycles);
  EXPECT_EQ(Mem.stats().Loads, 2u);
  EXPECT_EQ(Mem.stats().L1LoadMisses, 1u);
  EXPECT_EQ(Mem.stats().L2LoadMisses, 1u);
  EXPECT_EQ(Mem.stats().DtlbLoadMisses, 1u);
}

TEST_F(MemorySystemTest, PrefetchCancelledOnTlbMiss) {
  // Nothing touched the page yet: the hardware prefetch must cancel.
  Mem.prefetch(0x300000, 0);
  EXPECT_EQ(Mem.stats().SwPrefetchesCancelled, 1u);
  // The line was not brought in.
  uint64_t Before = Mem.cycles();
  Mem.load(0x300000);
  EXPECT_GT(Mem.cycles() - Before,
            static_cast<uint64_t>(Mem.config().MemPenalty));
}

TEST_F(MemorySystemTest, PrefetchAfterTlbWarmupFillsL2) {
  const MachineConfig &C = Mem.config();
  Mem.load(0x300000); // Warm the page's TLB entry.
  Mem.prefetch(0x300000 + 2 * C.Levels[1].Geometry.LineBytes, 0);
  EXPECT_EQ(Mem.stats().SwPrefetchesCancelled, 0u);
  // Let the fill complete.
  Mem.tick(C.PrefetchFillLatency);
  uint64_t Before = Mem.cycles();
  Mem.load(0x300000 + 2 * C.Levels[1].Geometry.LineBytes);
  // On the P4 the prefetch fills only the L2: the load misses L1, hits L2.
  EXPECT_EQ(Mem.cycles() - Before, C.Levels[0].HitCycles + C.Levels[1].HitCycles);
  EXPECT_EQ(Mem.stats().L2LoadMisses, 1u); // Only the warmup load.
}

TEST_F(MemorySystemTest, GuardedLoadPrimesTlbAndFillsL1) {
  const MachineConfig &C = Mem.config();
  Mem.guardedLoad(0x400000, 0);
  EXPECT_EQ(Mem.stats().GuardedLoads, 1u);
  Mem.tick(C.PrefetchFillLatency);
  uint64_t Before = Mem.cycles();
  Mem.load(0x400000);
  // TLB primed and L1 filled: a pure L1 hit.
  EXPECT_EQ(Mem.cycles() - Before, C.Levels[0].HitCycles);
  EXPECT_EQ(Mem.stats().DtlbLoadMisses, 0u);
}

TEST_F(MemorySystemTest, LatePrefetchPaysPartialLatency) {
  const MachineConfig &C = Mem.config();
  Mem.load(0x500000); // TLB warmup.
  Mem.prefetch(0x500000 + 4 * C.Levels[1].Geometry.LineBytes, 0);
  // Access immediately: the fill is in flight.
  uint64_t Before = Mem.cycles();
  Mem.load(0x500000 + 4 * C.Levels[1].Geometry.LineBytes);
  uint64_t Cost = Mem.cycles() - Before;
  EXPECT_GT(Cost,
            static_cast<uint64_t>(C.Levels[0].HitCycles + C.Levels[1].HitCycles));
  EXPECT_LE(Cost,
            static_cast<uint64_t>(C.Levels[0].HitCycles +
                                  C.Levels[1].HitCycles + C.PrefetchFillLatency));
}

TEST(MemorySystemAthlonTest, SwPrefetchFillsL1OnAthlon) {
  MachineConfig C = *MachineConfig::byName("athlon");
  MemorySystem Mem(C);
  Mem.load(0x600000); // TLB warmup.
  Mem.prefetch(0x600000 + 4 * C.Levels[0].Geometry.LineBytes, 0);
  Mem.tick(C.PrefetchFillLatency);
  uint64_t Before = Mem.cycles();
  Mem.load(0x600000 + 4 * C.Levels[0].Geometry.LineBytes);
  EXPECT_EQ(Mem.cycles() - Before, C.Levels[0].HitCycles); // Straight L1 hit.
}

TEST(MachineConfigTest, Table2Parameters) {
  MachineConfig P4 = (*MachineConfig::byName("pentium4"));
  ASSERT_EQ(P4.numLevels(), 2u);
  EXPECT_EQ(P4.Levels[0].Geometry.SizeBytes, 8u * 1024);
  EXPECT_EQ(P4.Levels[0].Geometry.LineBytes, 64u);
  EXPECT_EQ(P4.Levels[1].Geometry.SizeBytes, 256u * 1024);
  EXPECT_EQ(P4.Levels[1].Geometry.LineBytes, 128u);
  EXPECT_EQ(P4.TlbEntries, 64u);
  EXPECT_EQ(P4.SwFillLevel, 1u); // SW prefetches fill the L2.
  EXPECT_EQ(P4.Walk, TlbWalk::Flat);

  MachineConfig At = (*MachineConfig::byName("athlonmp"));
  ASSERT_EQ(At.numLevels(), 2u);
  EXPECT_EQ(At.Levels[0].Geometry.SizeBytes, 64u * 1024);
  EXPECT_EQ(At.Levels[0].Geometry.LineBytes, 64u);
  EXPECT_EQ(At.Levels[1].Geometry.SizeBytes, 256u * 1024);
  EXPECT_EQ(At.Levels[1].Geometry.LineBytes, 64u);
  EXPECT_EQ(At.TlbEntries, 256u);
  EXPECT_EQ(At.SwFillLevel, 0u); // SW prefetches fill the L1 too.
  EXPECT_EQ(At.Walk, TlbWalk::Flat);
}

} // namespace

namespace moresim {

using namespace spf::sim;

TEST(HwPrefetcherTest, TracksMultipleConcurrentStreams) {
  HardwarePrefetcher P(4, 1, 64, 4096);
  std::vector<uint64_t> Out;
  // Two interleaved ascending streams at distant bases.
  uint64_t A = 0, B = 1 << 20;
  P.onDemandMiss(A, Out);
  P.onDemandMiss(B, Out);
  EXPECT_TRUE(Out.empty());
  P.onDemandMiss(A + 64, Out); // Confirms stream A.
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0], A + 128);
  Out.clear();
  P.onDemandMiss(B + 64, Out); // Confirms stream B independently.
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0], B + 128);
}

TEST(MemorySystemTest2, StoresDoNotCountInLoadMpis) {
  MemorySystem Mem((*MachineConfig::byName("pentium4")));
  Mem.store(0x700000);
  Mem.store(0x700000 + 4096);
  EXPECT_EQ(Mem.stats().L1LoadMisses, 0u);
  EXPECT_EQ(Mem.stats().L2LoadMisses, 0u);
  EXPECT_EQ(Mem.stats().DtlbLoadMisses, 0u);
  EXPECT_EQ(Mem.stats().Stores, 2u);
}

TEST(MemorySystemTest2, WarmerIsNeverSlower) {
  // Property: re-running the same access trace against a warm hierarchy
  // never costs more cycles than the cold pass.
  MachineConfig C = (*MachineConfig::byName("athlonmp"));
  MemorySystem Mem(C);
  std::vector<uint64_t> Trace;
  uint64_t A = 0x100000000ull;
  for (int I = 0; I != 2000; ++I)
    Trace.push_back(A + (I * 296) % (1 << 18));
  uint64_t T0 = Mem.cycles();
  for (uint64_t Addr : Trace)
    Mem.load(Addr);
  uint64_t Cold = Mem.cycles() - T0;
  uint64_t T1 = Mem.cycles();
  for (uint64_t Addr : Trace)
    Mem.load(Addr);
  uint64_t Warm = Mem.cycles() - T1;
  EXPECT_LE(Warm, Cold);
}

} // namespace moresim

namespace health {

TEST(PrefetchHealthTest, ClearedHealthCountersEqualAHealthOffRun) {
  // The contract that lets governed and ungoverned runs share a machine:
  // a governed run (governor-mode interpreter, health-tracking
  // MemorySystem) over one epoch, where the governor never decides, equals
  // the ungoverned run in every statistic once the health counters are
  // cleared: timing, demand stats, cycle ledger and load-site numbering.
  // INTER+INTRA, so every workload that prefetches issues some.
  uint64_t Resolved = 0;
  for (const workloads::WorkloadSpec &Spec : workloads::allWorkloads())
    for (const char *Name : {"pentium4", "athlonmp", "modern3l"}) {
      workloads::RunOptions Off;
      Off.Machine = *MachineConfig::byName(Name);
      Off.Algo = workloads::Algorithm::InterIntra;
      Off.Config.Scale = 0.05;
      workloads::RunOptions On = Off;
      On.Governor = true;
      const workloads::RunResult ROff = workloads::runWorkload(Spec, Off);
      workloads::RunResult ROn = workloads::runWorkload(Spec, On);
      const std::string Tag = Spec.Name + " on " + Name;
      Resolved += ROn.Mem.SwPrefetchesUseful + ROn.Mem.SwPrefetchesLate +
                  ROn.Mem.SwPrefetchesUnused;
      clearPrefetchHealth(ROn.Mem, ROn.Sites);
      EXPECT_EQ(ROn.Mem, ROff.Mem) << Tag;
      EXPECT_EQ(ROn.Sites, ROff.Sites) << Tag;
      EXPECT_EQ(ROn.Acct, ROff.Acct) << Tag;
      EXPECT_EQ(ROn.CompiledCycles, ROff.CompiledCycles) << Tag;
      EXPECT_EQ(ROn.Exec, ROff.Exec) << Tag;
    }
  EXPECT_GT(Resolved, 0u); // Health tracking saw fills resolve.
}

} // namespace health
