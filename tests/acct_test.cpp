//===- tests/acct_test.cpp - Cycle attribution ----------------------------===//
//
// The cycle-attribution invariant, pinned end to end: every simulated
// cycle is charged to exactly one CycleAccounting category
// (acct().total() == cycles() on every machine, governed runs included),
// and per-site stall attribution covers every demand-load cycle.
//
//===----------------------------------------------------------------------===//

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
  Mem.prefetch(0x20000, 0);
  Mem.guardedLoad(0x30000, 0);
  Mem.guardedLoadFault(0);
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

} // namespace
