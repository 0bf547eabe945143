//===- tests/machine_test.cpp - Machine configs, RPT, page walks ----------===//
///
/// Covers the data-driven machine layer: the Baer-Chen RPT confidence
/// FSM, the builtin registry and its JSON machine-file round trip,
/// validate() diagnostics and the modeled page-table walk.
///
//===----------------------------------------------------------------------===//

#include "sim/MachineConfig.h"
#include "sim/MemorySystem.h"
#include "sim/RptPrefetcher.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

using namespace spf;
using namespace spf::sim;

namespace {

// ---------------------------------------------------------------------------
// RPT confidence FSM
// ---------------------------------------------------------------------------

class RptTest : public ::testing::Test {
protected:
  RptPrefetcher Rpt{/*NumEntries=*/8, /*Degree=*/2, /*PageBytes=*/4096};
  std::vector<uint64_t> Out;

  void observe(uint32_t Site, uint64_t Addr) { Rpt.observe(Site, Addr, Out); }
  RptState state(uint32_t Site) {
    const RptPrefetcher::Entry *E = Rpt.entryFor(Site);
    EXPECT_NE(E, nullptr);
    return E ? E->State : RptState::NoPred;
  }
};

TEST_F(RptTest, AllocationStartsInInitAndNeverIssues) {
  observe(1, 1000);
  EXPECT_EQ(state(1), RptState::Init);
  EXPECT_TRUE(Out.empty());
  EXPECT_EQ(Rpt.entryFor(1)->Stride, 0);
}

TEST_F(RptTest, StridePromotesThroughTransientToSteady) {
  observe(1, 1000);
  observe(1, 1064); // Stride 64 first seen: Init -> Transient, gated.
  EXPECT_EQ(state(1), RptState::Transient);
  EXPECT_TRUE(Out.empty());
  observe(1, 1128); // Confirmed: Transient -> Steady, issues ahead.
  EXPECT_EQ(state(1), RptState::Steady);
  ASSERT_EQ(Out.size(), 2u); // Degree 2: next two strided lines.
  EXPECT_EQ(Out[0], 1128u + 64);
  EXPECT_EQ(Out[1], 1128u + 128);
}

TEST_F(RptTest, RepeatedAddressReachesSteadyButZeroStrideIsGated) {
  observe(1, 1000);
  observe(1, 1000); // Stride 0 matches the fresh entry: Init -> Steady.
  EXPECT_EQ(state(1), RptState::Steady);
  EXPECT_TRUE(Out.empty()); // ... but stride 0 never issues.
}

TEST_F(RptTest, OneWrongStrideDemotesToInitButKeepsTheStride) {
  observe(1, 1000);
  observe(1, 1064);
  observe(1, 1128); // Steady, stride 64.
  Out.clear();
  observe(1, 5000); // Pointer-chase hiccup: Steady -> Init, stride kept.
  EXPECT_EQ(state(1), RptState::Init);
  EXPECT_EQ(Rpt.entryFor(1)->Stride, 64);
  EXPECT_TRUE(Out.empty()); // Demoted: issue gated again.
  observe(1, 5064); // The kept stride re-confirms in one step.
  EXPECT_EQ(state(1), RptState::Steady);
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_EQ(Out[0], 5064u + 64);
}

TEST_F(RptTest, ChangingStridesSinkToNoPredAndMustReconfirmTwice) {
  observe(1, 1000);
  observe(1, 1064); // Transient, stride 64.
  observe(1, 1200); // Wrong again: Transient -> NoPred, stride 136.
  EXPECT_EQ(state(1), RptState::NoPred);
  EXPECT_EQ(Rpt.entryFor(1)->Stride, 136);
  observe(1, 1336); // Correct once: NoPred -> Transient, still gated.
  EXPECT_EQ(state(1), RptState::Transient);
  EXPECT_TRUE(Out.empty());
  observe(1, 1472); // Correct twice: Transient -> Steady, issues.
  EXPECT_EQ(state(1), RptState::Steady);
  EXPECT_EQ(Out.size(), 2u);
}

TEST_F(RptTest, NegativeStridesAreFollowed) {
  observe(1, 8192 + 512);
  observe(1, 8192 + 448);
  observe(1, 8192 + 384);
  EXPECT_EQ(state(1), RptState::Steady);
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_EQ(Out[0], 8192u + 320);
  EXPECT_EQ(Out[1], 8192u + 256);
}

TEST_F(RptTest, PrefetchesNeverCrossThePage) {
  observe(1, 3904);
  observe(1, 3968);
  observe(1, 4032); // Steady at the last line of page 0: degree-2 would
                    // reach 4096/4160 — both on page 1, so nothing issues.
  EXPECT_EQ(state(1), RptState::Steady);
  EXPECT_TRUE(Out.empty());

  observe(2, 3840);
  observe(2, 3904);
  Out.clear();
  observe(2, 3968); // One target fits (4032); the second crosses.
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0], 4032u);
}

TEST_F(RptTest, SitesTrainIndependently) {
  // Interleaved streams with different strides — one entry each.
  uint64_t A = 1 << 20, B = 2 << 20;
  for (int I = 0; I != 3; ++I) {
    observe(1, A + 64 * static_cast<uint64_t>(I));
    observe(2, B + 256 * static_cast<uint64_t>(I));
  }
  EXPECT_EQ(state(1), RptState::Steady);
  EXPECT_EQ(state(2), RptState::Steady);
  EXPECT_EQ(Rpt.entryFor(1)->Stride, 64);
  EXPECT_EQ(Rpt.entryFor(2)->Stride, 256);
}

TEST_F(RptTest, LruReplacementEvictsTheColdestSite) {
  RptPrefetcher Small(/*NumEntries=*/2, /*Degree=*/1, /*PageBytes=*/4096);
  std::vector<uint64_t> O;
  Small.observe(1, 1000, O);
  Small.observe(2, 2000, O);
  Small.observe(2, 2064, O); // Site 1 is now the LRU entry.
  Small.observe(3, 3000, O); // Allocation victimizes site 1.
  EXPECT_EQ(Small.entryFor(1), nullptr);
  ASSERT_NE(Small.entryFor(2), nullptr);
  ASSERT_NE(Small.entryFor(3), nullptr);
}

// ---------------------------------------------------------------------------
// Registry, validation, machine files
// ---------------------------------------------------------------------------

TEST(MachineRegistryTest, ByNameNormalizesAndAliases) {
  for (const char *N : {"pentium4", "Pentium 4", "PENTIUM_4", "p4"}) {
    auto C = MachineConfig::byName(N);
    ASSERT_TRUE(C.has_value()) << N;
    EXPECT_EQ(C->Name, "Pentium 4") << N;
  }
  EXPECT_EQ(MachineConfig::byName("athlon-mp")->Name, "Athlon MP");
  EXPECT_EQ(MachineConfig::byName("athlon")->Name, "Athlon MP");
  EXPECT_EQ(MachineConfig::byName("modern3l")->Name, "Modern3L");
  EXPECT_EQ(MachineConfig::byName("modern")->Name, "Modern3L");
  EXPECT_FALSE(MachineConfig::byName("i486").has_value());
  EXPECT_EQ(MachineConfig::knownNames().size(), 3u);
}

TEST(MachineRegistryTest, BuiltinsValidateCleanly) {
  for (const std::string &Name : MachineConfig::knownNames()) {
    auto C = MachineConfig::byName(Name);
    ASSERT_TRUE(C.has_value());
    EXPECT_EQ(C->validate(), "") << Name;
  }
}

TEST(MachineValidateTest, RejectsBrokenGeometry) {
  MachineConfig C = MachineConfig::pentium4();
  C.Levels[0].Geometry.LineBytes = 48; // Not a power of two.
  EXPECT_NE(C.validate().find("power of two"), std::string::npos);

  C = MachineConfig::pentium4();
  C.Levels[1].Geometry.Assoc = 0;
  EXPECT_NE(C.validate().find("associativity"), std::string::npos);

  C = MachineConfig::pentium4();
  C.Levels.pop_back(); // Single-level hierarchy.
  EXPECT_NE(C.validate().find("two cache levels"), std::string::npos);

  C = MachineConfig::pentium4();
  C.SwFillLevel = 5;
  EXPECT_NE(C.validate().find("fill level"), std::string::npos);

  C = MachineConfig::modern3();
  C.WalkLevels = 0;
  EXPECT_NE(C.validate().find("walk levels"), std::string::npos);

  C = MachineConfig::pentium4();
  C.Levels[1].Geometry.SizeBytes = 1024; // L2 smaller than L1.
  EXPECT_NE(C.validate().find("smaller than the level above"),
            std::string::npos);
}

TEST(MachineFileTest, JsonRoundTripReproducesEveryBuiltin) {
  for (const std::string &Name : MachineConfig::knownNames()) {
    MachineConfig C = *MachineConfig::byName(Name);
    std::string Err;
    auto Back = MachineConfig::fromJsonText(C.toJsonText(), &Err);
    ASSERT_TRUE(Back.has_value()) << Name << ": " << Err;
    EXPECT_EQ(*Back, C) << Name;
  }
}

TEST(MachineFileTest, MalformedInputIsRejectedWithADiagnostic) {
  struct BadCase {
    const char *Text;
    const char *Expect;
  } Cases[] = {
      {"{", "malformed JSON"},
      {"[1,2]", "must be a JSON object"},
      {"{\"name\":\"x\"}", "\"levels\" array"},
      {"{\"name\":\"x\",\"levels\":[{\"label\":\"L1\",\"size_bytes\":8192,"
       "\"line_bytes\":64,\"assoc\":4,\"hit_cycles\":1},{\"label\":\"L2\","
       "\"size_bytes\":262144,\"line_bytes\":64,\"assoc\":8,"
       "\"hit_cycles\":6}],\"tlb\":{\"walk\":\"teleport\"}}",
       "unknown tlb walk mode"},
      {"{\"name\":\"x\",\"levels\":[{\"label\":\"L1\",\"size_bytes\":8192,"
       "\"line_bytes\":64,\"assoc\":4,\"hit_cycles\":1},{\"label\":\"L2\","
       "\"size_bytes\":262144,\"line_bytes\":64,\"assoc\":8,"
       "\"hit_cycles\":6}],\"hw_prefetch\":{\"kind\":\"psychic\"}}",
       "unknown hw_prefetch kind"},
      {"{\"name\":\"x\",\"levels\":[{\"label\":\"L1\",\"size_bytes\":8192,"
       "\"line_bytes\":64,\"assoc\":4,\"hit_cycles\":1},{\"label\":\"L2\","
       "\"size_bytes\":262144,\"line_bytes\":64,\"assoc\":8,"
       "\"hit_cycles\":6}],\"sw_prefetch_fill\":\"L9\"}",
       "names no cache level"},
      {"{\"name\":\"x\",\"levels\":[{\"label\":\"L1\",\"size_bytes\":8192,"
       "\"line_bytes\":48,\"assoc\":4,\"hit_cycles\":1},{\"label\":\"L2\","
       "\"size_bytes\":262144,\"line_bytes\":64,\"assoc\":8,"
       "\"hit_cycles\":6}]}",
       "invalid machine config"},
  };
  for (const BadCase &B : Cases) {
    std::string Err;
    auto C = MachineConfig::fromJsonText(B.Text, &Err);
    EXPECT_FALSE(C.has_value()) << B.Text;
    EXPECT_NE(Err.find(B.Expect), std::string::npos)
        << "got \"" << Err << "\", wanted substring \"" << B.Expect << "\"";
  }
}

/// The Pentium 4's machine file with the first \p From replaced by \p To.
std::string p4TextWith(const std::string &From, const std::string &To) {
  std::string Text = MachineConfig::pentium4().toJsonText();
  size_t At = Text.find(From);
  EXPECT_NE(At, std::string::npos) << From;
  return Text.replace(At, From.size(), To);
}

TEST(MachineFileTest, ValuesWiderThan32BitsAreRejected) {
  // 2^32 + 1 and 2^32 + 64 used to wrap to 1 and 64 and pass validation.
  struct WideCase {
    const char *From;
    const char *To;
  } Cases[] = {
      {"\"tlb_entries\":64", "\"tlb_entries\":4294967297"},
      {"\"line_bytes\":64", "\"line_bytes\":4294967360"},
      {"\"assoc\":4", "\"assoc\":4294967300"},
      {"\"miss_penalty\":35", "\"miss_penalty\":4294967331"},
  };
  for (const WideCase &W : Cases) {
    std::string Err;
    auto C = MachineConfig::fromJsonText(p4TextWith(W.From, W.To), &Err);
    EXPECT_FALSE(C.has_value()) << W.To;
    EXPECT_NE(Err.find("does not fit in 32 bits"), std::string::npos)
        << W.To << ": got \"" << Err << "\"";
  }
}

TEST(MachineFileTest, TlbEntriesAreBoundedByTheRecencyLinks) {
  std::string Max = std::to_string(Tlb::MaxEntries);
  std::string Err;
  auto C = MachineConfig::fromJsonText(
      p4TextWith("\"tlb_entries\":64", "\"tlb_entries\":" + Max), &Err);
  ASSERT_TRUE(C.has_value()) << Err;
  EXPECT_EQ(C->TlbEntries, Tlb::MaxEntries);

  std::string Over = std::to_string(Tlb::MaxEntries + 1);
  C = MachineConfig::fromJsonText(
      p4TextWith("\"tlb_entries\":64", "\"tlb_entries\":" + Over), &Err);
  EXPECT_FALSE(C.has_value());
  EXPECT_NE(Err.find("TLB entries must be at most " + Max), std::string::npos)
      << Err;
}

TEST(MachineFileTest, FromFileReportsUnreadablePaths) {
  std::string Err;
  EXPECT_FALSE(
      MachineConfig::fromFile("/nonexistent/machine.json", &Err).has_value());
  EXPECT_NE(Err.find("cannot read"), std::string::npos);
}

/// The committed machines/*.json files are the CLI-facing versions of
/// the builtins; they must stay exactly in sync.
TEST(MachineFileTest, CommittedMachineFilesMatchTheBuiltins) {
  std::filesystem::path Repo =
      std::filesystem::path(__FILE__).parent_path().parent_path();
  struct FilePair {
    const char *File;
    MachineConfig Builtin;
  } Pairs[] = {
      {"machines/pentium4.json", MachineConfig::pentium4()},
      {"machines/athlon_mp.json", MachineConfig::athlonMP()},
      {"machines/modern3l.json", MachineConfig::modern3()},
  };
  for (const FilePair &P : Pairs) {
    std::string Err;
    auto C = MachineConfig::fromFile((Repo / P.File).string(), &Err);
    ASSERT_TRUE(C.has_value()) << P.File << ": " << Err;
    EXPECT_EQ(*C, P.Builtin) << P.File;
  }
}

// ---------------------------------------------------------------------------
// Modeled page walks
// ---------------------------------------------------------------------------

/// Modern3L with the hardware prefetcher off, so walk costs are the only
/// moving part.
MachineConfig walkedMachine() {
  MachineConfig C = MachineConfig::modern3();
  C.HwPrefetch = HwPrefetchKind::None;
  return C;
}

TEST(PageWalkTest, DemandMissWalksThroughTheCaches) {
  MemorySystem Mem(walkedMachine());
  Mem.load(1 << 20);
  EXPECT_EQ(Mem.stats().DtlbLoadMisses, 1u);
  EXPECT_EQ(Mem.stats().PageWalks, 1u);
  EXPECT_GT(Mem.stats().PageWalkCycles, 0u);
  // A cold walk misses every level at every radix step.
  const MachineConfig &C = Mem.config();
  uint64_t ColdStep = C.MemPenalty;
  for (const CacheLevel &L : C.Levels)
    ColdStep += L.HitCycles;
  EXPECT_EQ(Mem.stats().PageWalkCycles, C.WalkLevels * ColdStep);
}

TEST(PageWalkTest, NeighborPagesShareUpperLevelEntries) {
  MemorySystem Mem(walkedMachine());
  Mem.load(1 << 20);
  uint64_t FirstWalk = Mem.stats().PageWalkCycles;
  Mem.load((1 << 20) + Mem.config().PageBytes); // Next page: new leaf PTE,
  uint64_t SecondWalk = Mem.stats().PageWalkCycles - FirstWalk;
  EXPECT_EQ(Mem.stats().PageWalks, 2u);
  EXPECT_GT(SecondWalk, 0u);
  EXPECT_LT(SecondWalk, FirstWalk); // ... warmed upper-level nodes.
}

TEST(PageWalkTest, GuardedLoadPrimingWalksButChargesNothing) {
  MemorySystem Mem(walkedMachine());
  uint64_t Addr = 1 << 20;
  Mem.guardedLoad(Addr, 0);
  EXPECT_EQ(Mem.stats().PageWalks, 1u); // The priming walk happened...
  EXPECT_EQ(Mem.stats().PageWalkCycles, 0u); // ... latency-hidden.
  EXPECT_EQ(Mem.stats().DtlbLoadMisses, 0u); // Not a demand miss.
  // Only the issue overhead stalls the pipeline.
  EXPECT_EQ(Mem.cycles(), uint64_t(Mem.config().GuardedLoadCost));

  // Once the fill lands, the demand load finds the DTLB and caches
  // primed: no walk, no TLB miss, a plain L1 hit.
  Mem.tick(Mem.config().PrefetchFillLatency);
  uint64_t Before = Mem.cycles();
  Mem.load(Addr);
  EXPECT_EQ(Mem.stats().PageWalks, 1u);
  EXPECT_EQ(Mem.stats().DtlbLoadMisses, 0u);
  EXPECT_EQ(Mem.cycles() - Before,
            uint64_t(Mem.config().Levels[0].HitCycles));
}

TEST(PageWalkTest, FlatTlbMachinesNeverWalk) {
  MemorySystem Mem(*MachineConfig::byName("pentium4"));
  Mem.load(1 << 20);
  EXPECT_EQ(Mem.stats().DtlbLoadMisses, 1u);
  EXPECT_EQ(Mem.stats().PageWalks, 0u);
  EXPECT_EQ(Mem.stats().PageWalkCycles, 0u);
}

// ---------------------------------------------------------------------------
// Prefetcher selection inside MemorySystem
// ---------------------------------------------------------------------------

TEST(HwPrefetchSelectTest, RptObservesOnlyWhenSelectedAndEnabled) {
  MachineConfig Rpt = MachineConfig::modern3(); // kind = rpt
  MachineConfig Off = Rpt;
  Off.HwPrefetchEnabled = false;
  MachineConfig Stream = Rpt;
  Stream.HwPrefetch = HwPrefetchKind::Stream;

  MemorySystem A(Rpt), B(Off), C(Stream);
  for (uint64_t I = 0; I != 8; ++I) {
    A.load((1 << 20) + I * 64, 3);
    B.load((1 << 20) + I * 64, 3);
    C.load((1 << 20) + I * 64, 3);
  }
  EXPECT_GT(A.stats().RptPrefetchesIssued, 0u);
  EXPECT_EQ(B.stats().RptPrefetchesIssued, 0u);
  EXPECT_EQ(C.stats().RptPrefetchesIssued, 0u);
}

TEST(HwPrefetchSelectTest, RptPrefetchesCutLastLevelMisses) {
  MachineConfig WithRpt = MachineConfig::modern3();
  MachineConfig NoHw = walkedMachine();
  MemorySystem A(WithRpt), B(NoHw);
  // A long strided sweep inside pages: the steady-state RPT should hide
  // most last-level misses that the prefetcher-less machine pays.
  for (uint64_t I = 0; I != 512; ++I) {
    uint64_t Addr = (1 << 20) + I * 64;
    A.load(Addr, 9);
    A.tick(200); // Give prefetched lines time to arrive.
    B.load(Addr, 9);
    B.tick(200);
  }
  EXPECT_LT(A.stats().LlcLoadMisses, B.stats().LlcLoadMisses);
  EXPECT_LT(A.stats().CyclesStalledOnLoads, B.stats().CyclesStalledOnLoads);
}

} // namespace
