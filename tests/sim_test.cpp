//===- tests/sim_test.cpp - Cache, TLB, prefetcher, memory system ---------===//

#include "sim/MemorySystem.h"
#include "support/SplitMix64.h"
#include "workloads/Runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
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
  EXPECT_EQ(C.demandAccesses(), 4u);
  EXPECT_EQ(C.demandMisses(), 2u);
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

TEST(CacheTest, PrefetchFillMakesDemandHitButCountsSeparately) {
  Cache C(CacheParams{1024, 64, 2});
  C.prefetchFill(0x2000, /*ReadyAt=*/0);
  EXPECT_EQ(C.prefetchFills(), 1u);
  EXPECT_EQ(C.demandAccesses(), 0u);
  auto R = C.access(0x2000, 100);
  EXPECT_TRUE(R.Hit);
  EXPECT_EQ(R.WaitCycles, 0u);
  EXPECT_EQ(C.demandMisses(), 0u);
}

TEST(CacheTest, LatePrefetchChargesRemainingLatency) {
  Cache C(CacheParams{1024, 64, 2});
  C.prefetchFill(0x2000, /*ReadyAt=*/150);
  auto R = C.access(0x2000, 100); // 50 cycles early.
  EXPECT_TRUE(R.Hit);
  EXPECT_EQ(R.WaitCycles, 50u);
  EXPECT_EQ(C.lateProbes(), 1u);
  // Once waited for, the line is ready.
  auto R2 = C.access(0x2000, 101);
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
  for (uint64_t I = 0; I != Lines; ++I)
    C.access(I * G.Line, I);
  EXPECT_EQ(C.demandMisses(), Lines);
  // Pass 2: everything fits; zero new misses.
  for (uint64_t I = 0; I != Lines; ++I)
    EXPECT_TRUE(C.access(I * G.Line, 1000 + I).Hit);
  EXPECT_EQ(C.demandMisses(), Lines);

  // A scan of twice the capacity leaves nothing reusable: a third pass
  // over it misses every line again (LRU + power-of-two strides).
  Cache C2(CacheParams{G.Size, G.Line, G.Assoc});
  uint64_t Big = G.Size / G.Line * 2;
  for (int Pass = 0; Pass != 2; ++Pass)
    for (uint64_t I = 0; I != Big; ++I)
      C2.access(I * G.Line, I);
  EXPECT_EQ(C2.demandMisses(), 2 * Big);
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
  EXPECT_EQ(T.demandMisses(), 2u);
  EXPECT_EQ(T.demandAccesses(), 3u);
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

TEST(TlbTest, FillPrimesWithoutCountingDemand) {
  Tlb T(4, 4096);
  T.fill(0x5000); // TLB priming (guarded load).
  EXPECT_EQ(T.demandAccesses(), 0u);
  EXPECT_TRUE(T.access(0x5000));
  EXPECT_EQ(T.demandMisses(), 0u);
}

/// The classic linked-list LRU the TLB must match exactly: most recent
/// page at the front.
class ListLruTlb {
public:
  explicit ListLruTlb(size_t Entries) : Entries(Entries) {}

  bool access(uint64_t Page) {
    bool Hit = touch(Page);
    if (!Hit)
      ++Misses;
    return Hit;
  }
  void fill(uint64_t Page) { touch(Page); }
  bool contains(uint64_t Page) const {
    return std::find(Pages.begin(), Pages.end(), Page) != Pages.end();
  }
  void reset() { Pages.clear(); }
  uint64_t misses() const { return Misses; }
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
  uint64_t Misses = 0;
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
    ASSERT_EQ(T.demandMisses(), Ref.misses()) << "op " << Op;
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
