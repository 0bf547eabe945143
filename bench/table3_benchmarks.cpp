//===- bench/table3_benchmarks.cpp - Table 3 ------------------------------===//
///
/// Reproduces Table 3: "Description of the SPECjvm98 and the JavaGrande
/// v2.0 Section 3" benchmarks with the compiled-code percentages the
/// mixed-mode total-time model uses, plus the built size of each kernel.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "workloads/Workload.h"

#include <cstdio>

using namespace spf::workloads;

int main(int argc, char **argv) {
  spf::bench::parseArgs(argc, argv, {}); // Takes no arguments.
  std::printf("Table 3: benchmark descriptions\n");
  std::printf("%-12s %-42s %10s %12s\n", "program", "description",
              "compiled%", "heap bytes");
  std::printf("%-12s %-42s %10s %12s\n", "-------", "-----------",
              "---------", "----------");
  WorkloadConfig Cfg; // Full problem size.
  for (const WorkloadSpec &S : allWorkloads()) {
    BuiltWorkload W = S.Build(Cfg);
    std::printf("%-12s %-42s %9.1f%% %12llu\n", S.Name.c_str(),
                S.Description.c_str(), S.CompiledFraction * 100.0,
                static_cast<unsigned long long>(W.Heap->bytesUsed()));
  }
  return 0;
}
