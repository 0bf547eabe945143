//===- workloads/ProgramPopulation.h - The rest of the program --*- C++ -*-===//
///
/// \file
/// Synthesizes the compiled-method population of a benchmark. SPECjvm98
/// programs JIT-compile hundreds of methods, almost all of which never
/// show up in the performance profile; Figure 11's "total JIT compilation
/// time" denominator is dominated by them. Each workload therefore adds a
/// deterministic population of ordinary methods (arithmetic, branches,
/// small counted loops — no profiled heap traffic) that nothing executes;
/// only measureCompileTime compiles them with the executed units.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_WORKLOADS_PROGRAMPOPULATION_H
#define SPF_WORKLOADS_PROGRAMPOPULATION_H

#include "workloads/KernelBuilder.h"

namespace spf {
namespace workloads {

/// Generates \p NumMethods compile-only methods into \p B 's module and
/// registers them (with no argument values, as for any method compiled
/// before its first profiled invocation) after \p B 's executed compile
/// units. Call after World::seal() and the executed units.
void addCompiledPopulation(BuiltWorkload &B, unsigned NumMethods,
                           uint64_t Seed);

/// Workload phase change: shuffles the element order of every reference
/// array on \p H (seeded Fisher-Yates per array), modeling the program
/// entering a phase that visits the same objects in a different order —
/// object addresses are untouched, but array-driven access sequences
/// (and the strides inspection derived from them) change. Termination
/// of re-run entry methods is unaffected: array iteration is counted,
/// and pointer chains keep their links. Returns the number of arrays
/// shuffled. Deterministic in \p Seed.
unsigned applyPhaseChange(vm::Heap &H, uint64_t Seed);

} // namespace workloads
} // namespace spf

#endif // SPF_WORKLOADS_PROGRAMPOPULATION_H
