//===- bench/table2_machines.cpp - Table 2 --------------------------------===//
///
/// Reproduces Table 2: "Parameters related to prefetching on the Pentium 4
/// and the Athlon MP", plus the cycle-model additions our simulator needs.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "sim/MachineConfig.h"

#include <cstdio>

using namespace spf::sim;

static void printRow(const MachineConfig &C) {
  std::printf("%-10s %8llu %8u %8llu %8u %7u\n", C.Name.c_str(),
              static_cast<unsigned long long>(C.Levels[0].Geometry.SizeBytes /
                                              1024),
              C.Levels[0].Geometry.LineBytes,
              static_cast<unsigned long long>(C.Levels[1].Geometry.SizeBytes /
                                              1024),
              C.Levels[1].Geometry.LineBytes, C.TlbEntries);
}

int main(int argc, char **argv) {
  spf::bench::parseArgs(argc, argv, {}); // Takes no arguments.
  std::printf("Table 2: parameters related to prefetching\n");
  std::printf("%-10s %8s %8s %8s %8s %7s\n", "Processor", "L1(KB)",
              "L1line", "L2(KB)", "L2line", "#DTLB");
  MachineConfig P4 = *MachineConfig::byName("pentium4");
  MachineConfig At = *MachineConfig::byName("athlonmp");
  printRow(P4);
  printRow(At);

  std::printf("\nCycle model (exposed penalties) and prefetch semantics:\n");
  for (const MachineConfig &C : {P4, At}) {
    std::printf(
        "%-10s  L1hit=%u L2hit=+%u mem=+%u dtlbmiss=+%u fill=%u "
        "swprefetch->%s guarded-intra=%s hwprefetch=%s\n",
        C.Name.c_str(), C.Levels[0].HitCycles, C.Levels[1].HitCycles,
        C.MemPenalty, C.TlbMissPenalty, C.PrefetchFillLatency,
        C.Levels[C.SwFillLevel].Label.c_str(), C.SwFillLevel > 0 ? "yes" : "no",
        hwPrefetchKindName(C.HwPrefetch));
  }
  return 0;
}
