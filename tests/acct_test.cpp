//===- tests/acct_test.cpp - Cycle attribution and timeline sampling ------===//
//
// The cycle-attribution invariant, pinned end to end: every simulated
// cycle is charged to exactly one CycleAccounting category
// (acct().total() == cycles() on every machine, governed runs included),
// per-site stall attribution covers every demand-load cycle, and the
// TimelineSampler's series is internally consistent — boundary samples
// included — with deterministic decimation.
//
//===----------------------------------------------------------------------===//

#include "obs/Timeline.h"
#include "sim/MemorySystem.h"
#include "workloads/Runner.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace spf;

namespace {

workloads::WorkloadConfig tinyConfig() {
  workloads::WorkloadConfig Cfg;
  Cfg.Scale = 0.05;
  return Cfg;
}

const std::vector<sim::MachineConfig> &allMachines() {
  static const std::vector<sim::MachineConfig> Machines = {
      (*sim::MachineConfig::byName("pentium4")),
      (*sim::MachineConfig::byName("athlonmp")),
      (*sim::MachineConfig::byName("modern3l"))};
  return Machines;
}

// -- The attribution invariant ----------------------------------------------

TEST(CycleAccountingTest, SyntheticEventsChargeTheRightCategories) {
  sim::MemorySystem Mem(allMachines()[0]);
  const sim::MachineConfig &Cfg = allMachines()[0];
  Mem.tick(10);
  EXPECT_EQ(Mem.acct().Compute, 10 * Cfg.ComputeCycles);
  Mem.load(0x10000, 0);   // Cold miss: L1 base + deeper levels + memory.
  Mem.load(0x10008, 0);   // Hot hit: L1 base cost only.
  Mem.prefetch(0x20000);
  Mem.guardedLoad(0x30000);
  Mem.guardedLoadFault();
  const sim::CycleAccounting &A = Mem.acct();
  EXPECT_GT(A.Level[0], 0u);
  EXPECT_GT(A.MemPenalty, 0u);
  EXPECT_GT(A.PrefetchIssue, 0u);
  EXPECT_GT(A.GuardFault, 0u);
  EXPECT_EQ(A.total(), Mem.cycles());
  // Per-site stall attribution covers every charged demand-load cycle.
  uint64_t SiteStall = 0;
  for (const sim::SiteStats &S : Mem.siteStats())
    SiteStall += S.StallCycles;
  EXPECT_EQ(SiteStall, Mem.stats().CyclesStalledOnLoads);
}

TEST(CycleAccountingTest, LiveRunsSatisfyTheInvariantOnEveryMachine) {
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("compress");
  ASSERT_NE(Spec, nullptr);
  for (const sim::MachineConfig &Machine : allMachines()) {
    workloads::RunOptions Opt;
    Opt.Machine = Machine;
    Opt.Algo = workloads::Algorithm::InterIntra;
    Opt.Config = tinyConfig();
    workloads::RunResult R = workloads::runWorkload(*Spec, Opt);
    EXPECT_EQ(R.Acct.total(), R.CompiledCycles) << Machine.Name;
  }
}

TEST(CycleAccountingTest, GovernorRunsSatisfyTheInvariant) {
  // Governor runs enable prefetch-health tracking and its site-attributed
  // prefetch events; those handlers must self-account too.
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("db");
  ASSERT_NE(Spec, nullptr);
  workloads::RunOptions Opt;
  Opt.Machine = allMachines()[0];
  Opt.Algo = workloads::Algorithm::InterIntra;
  Opt.Config = tinyConfig();
  Opt.Epochs = 3;
  Opt.GcVariant = vm::GcVariant::AddressShuffle;
  Opt.Governor = true;
  workloads::RunResult R = workloads::runWorkload(*Spec, Opt);
  EXPECT_EQ(R.Acct.total(), R.CompiledCycles);
  EXPECT_GT(R.Acct.Compute, 0u);
}

// -- Timeline sampling ------------------------------------------------------

TEST(TimelineTest, LiveSamplesAreConsistentAcrossEpochs) {
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("db");
  ASSERT_NE(Spec, nullptr);
  workloads::RunOptions Opt;
  Opt.Machine = allMachines()[0];
  Opt.Algo = workloads::Algorithm::InterIntra;
  Opt.Config = tinyConfig();
  Opt.Epochs = 3;
  Opt.TimelineEvery = 1000;
  workloads::RunResult Live = workloads::runWorkload(*Spec, Opt);
  ASSERT_FALSE(Live.Timeline.empty());

  size_t Boundaries = 0;
  for (const obs::TimelineSample &S : Live.Timeline)
    if (S.Boundary)
      ++Boundaries;
  EXPECT_EQ(Boundaries, 2u); // Epochs - 1 boundaries.

  // Each sample satisfies the attribution invariant, and the series is
  // monotone in both event index and cycles.
  for (size_t I = 0; I != Live.Timeline.size(); ++I) {
    const obs::TimelineSample &S = Live.Timeline[I];
    EXPECT_EQ(S.Acct.total(), S.Cycles) << "sample " << I;
    if (I) {
      EXPECT_GE(S.EventIndex, Live.Timeline[I - 1].EventIndex);
      EXPECT_GE(S.Cycles, Live.Timeline[I - 1].Cycles);
    }
  }
  // The final sample is the whole run.
  EXPECT_EQ(Live.Timeline.back().Cycles, Live.CompiledCycles);
  EXPECT_EQ(Live.Acct, Live.Timeline.back().Acct);

  // Without a cadence the same run carries no timeline and the same
  // attribution: sampling observes the stream, never shapes it.
  Opt.TimelineEvery = 0;
  workloads::RunResult Plain = workloads::runWorkload(*Spec, Opt);
  EXPECT_TRUE(Plain.Timeline.empty());
  EXPECT_EQ(Plain.Acct, Live.Acct);
}

TEST(TimelineTest, DecimationKeepsBoundariesAndStaysDeterministic) {
  // A tiny MaxSamples forces repeated decimation; boundary samples are
  // never dropped and two identical runs produce identical series.
  auto Run = [](std::vector<obs::TimelineSample> &Out) {
    sim::MemorySystem Mem(allMachines()[0]);
    obs::TimelineSampler S(Mem, /*Every=*/1, /*MaxSamples=*/8);
    uint64_t Addr = 0x40000;
    for (unsigned I = 0; I != 500; ++I) {
      S.tick(2);
      S.load(Addr += 64, 0);
      if (I == 100 || I == 300) {
        S.tick(5);
        S.boundary();
      }
    }
    S.finish();
    Out = S.takeSamples();
  };
  std::vector<obs::TimelineSample> First, Second;
  Run(First);
  Run(Second);
  EXPECT_EQ(First, Second);
  // Decimation honored the cap's order of magnitude (it halves when the
  // cap is hit, so the series can sit just under it) and kept both
  // boundary samples.
  EXPECT_LE(First.size(), 16u);
  size_t Boundaries = 0;
  for (const obs::TimelineSample &S : First)
    if (S.Boundary)
      ++Boundaries;
  EXPECT_EQ(Boundaries, 2u);
  // Samples remain monotone and internally consistent after decimation.
  for (size_t I = 1; I < First.size(); ++I) {
    EXPECT_GE(First[I].EventIndex, First[I - 1].EventIndex);
    EXPECT_EQ(First[I].Acct.total(), First[I].Cycles);
  }
}

} // namespace
