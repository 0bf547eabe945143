//===- workloads/Workload.h - Benchmark kernels (Table 3) -------*- C++ -*-===//
///
/// \file
/// The 12 programs of the paper's Table 3 (SPECjvm98 and JavaGrande v2.0
/// Section 3), rebuilt as synthetic kernels in the JIT IR. Each kernel
/// reproduces the memory behaviour the paper's evaluation narrative
/// attributes to that benchmark (see DESIGN.md for the per-workload
/// mapping); each also carries the Table 3 "compiled code %" used by the
/// mixed-mode total-time model.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_WORKLOADS_WORKLOAD_H
#define SPF_WORKLOADS_WORKLOAD_H

#include "ir/IRBuilder.h"
#include "vm/Heap.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>

namespace spf {
namespace workloads {

/// Build-time knobs. Scale < 1 shrinks the problem (used by tests);
/// 1.0 is the size the benchmarks report with.
struct WorkloadConfig {
  double Scale = 1.0;
  uint64_t Seed = 0x5eed0001;
  uint64_t HeapBytes = 96ull << 20;
};

/// A method to compile and the actual argument values of its first
/// invocation (what the JIT hands to object inspection).
struct CompileUnit {
  ir::Method *M = nullptr;
  std::vector<uint64_t> Args;

  bool operator==(const CompileUnit &) const = default;
};

/// A fully constructed workload: its world (types/heap/module) and the
/// entry point to execute.
struct BuiltWorkload {
  std::unique_ptr<vm::TypeTable> Types;
  std::unique_ptr<vm::Heap> Heap;
  std::unique_ptr<ir::Module> Module;

  ir::Method *Entry = nullptr;
  std::vector<uint64_t> EntryArgs;

  /// Methods the JIT compiles (with per-method first-invocation args):
  /// the executed units, then, from PopulationBegin on (SIZE_MAX: none),
  /// the compile-only population (addCompiledPopulation).
  std::vector<CompileUnit> CompileUnits;
  size_t PopulationBegin = SIZE_MAX;
  std::span<const CompileUnit> executedUnits() const {
    return {CompileUnits.data(),
            std::min(PopulationBegin, CompileUnits.size())};
  }

  /// GC roots (handles the simulated mutator owns).
  std::vector<vm::Addr> Roots;

  /// Self-check: expected entry return value, when deterministic.
  std::optional<uint64_t> Expected;
};

/// Descriptor of one Table 3 program.
struct WorkloadSpec {
  std::string Name;
  std::string Description;  ///< Table 3 description column.
  double CompiledFraction;  ///< Table 3 "Compiled code (%)" / 100.
  std::function<BuiltWorkload(const WorkloadConfig &)> Build;
};

/// All 12 workloads in the paper's Table 3 order.
const std::vector<WorkloadSpec> &allWorkloads();

/// Finds a workload by name, or null.
const WorkloadSpec *findWorkload(const std::string &Name);

// Individual factories (one per Table 3 row).
WorkloadSpec makeMtrtWorkload();
WorkloadSpec makeJessWorkload();
WorkloadSpec makeCompressWorkload();
WorkloadSpec makeDbWorkload();
WorkloadSpec makeMpegAudioWorkload();
WorkloadSpec makeJackWorkload();
WorkloadSpec makeJavacWorkload();
WorkloadSpec makeEulerWorkload();
WorkloadSpec makeMolDynWorkload();
WorkloadSpec makeMonteCarloWorkload();
WorkloadSpec makeRayTracerWorkload();
WorkloadSpec makeSearchWorkload();

} // namespace workloads
} // namespace spf

#endif // SPF_WORKLOADS_WORKLOAD_H
