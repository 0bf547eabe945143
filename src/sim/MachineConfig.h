//===- sim/MachineConfig.h - Machine models (paper Table 2) -----*- C++ -*-===//
///
/// \file
/// Data-driven machine descriptions: an ordered vector of cache levels
/// (geometry + hit penalty per level), DTLB parameters with either a flat
/// miss penalty or a modeled page-table walk, and a selectable hardware
/// prefetcher (none / sequential stream / Baer-Chen RPT).
///
/// The two evaluation platforms of the paper (Table 2) are builtin
/// two-level configs:
///
///   Processor   L1 size  L1 line  L2 size  L2 line  #DTLB
///   Pentium 4     8 KB     64 B   256 KB    128 B     64
///   Athlon MP    64 KB     64 B   256 KB     64 B    256
///
/// The target level of a software prefetch is the L2 on the Pentium 4 and
/// the L1 on the Athlon MP (Section 4) — the single most consequential
/// difference for the evaluation (e.g. MolDyn). A third builtin,
/// modern3(), is a three-level (L1/L2/LLC) machine with walked TLB
/// misses and an RPT prefetcher.
///
/// Configs are also loadable from JSON machine files (machines/*.json)
/// via fromFile(); byName() resolves the builtins. Every entry point
/// funnels through validate(), which rejects geometry the simulator
/// would otherwise mishandle silently (non-power-of-two lines/sets, a
/// fill level past the hierarchy, ...).
///
//===----------------------------------------------------------------------===//

#ifndef SPF_SIM_MACHINECONFIG_H
#define SPF_SIM_MACHINECONFIG_H

#include "sim/Cache.h"

#include <optional>
#include <string>
#include <vector>

namespace spf {
namespace sim {

/// Hardware prefetcher attached to the last cache level.
enum class HwPrefetchKind : uint8_t {
  None,   ///< No hardware prefetcher.
  Stream, ///< Sequential next-line stream detector (trains on misses).
  Rpt,    ///< Baer-Chen reference prediction table keyed by load site.
};

/// How a DTLB miss is charged.
enum class TlbWalk : uint8_t {
  Flat,   ///< Flat TlbMissPenalty cycles (the classic model).
  Walked, ///< Modeled radix page-table walk through the cache hierarchy.
};

const char *hwPrefetchKindName(HwPrefetchKind K);
std::optional<HwPrefetchKind> parseHwPrefetchKind(const std::string &Name);
const char *tlbWalkName(TlbWalk W);
std::optional<TlbWalk> parseTlbWalk(const std::string &Name);

/// One level of the cache hierarchy, shallowest first.
struct CacheLevel {
  std::string Label = "L1"; ///< "L1", "L2", "LLC", ... (diagnostics/JSON).
  CacheParams Geometry;
  /// Level 0: cycles of every access that hits it. Deeper levels: cycles
  /// *added* when the previous level misses and this one is probed.
  unsigned HitCycles = 1;

  bool operator==(const CacheLevel &) const = default;
};

/// All simulator parameters of one machine.
struct MachineConfig {
  std::string Name;

  /// The cache hierarchy, L1 first. At least two levels.
  std::vector<CacheLevel> Levels;

  unsigned TlbEntries = 64;
  unsigned PageBytes = 4096;

  /// DTLB miss model. Flat charges TlbMissPenalty; Walked performs
  /// WalkLevels page-table accesses through the cache hierarchy, so the
  /// walk cost depends on cache state (and guarded-load TLB priming
  /// leaves the walked entries warm).
  TlbWalk Walk = TlbWalk::Flat;
  unsigned TlbMissPenalty = 50; ///< Flat-mode DTLB miss charge.
  unsigned WalkLevels = 4;      ///< Radix depth of the modeled walk.
  unsigned WalkEntryBytes = 8;  ///< Bytes per page-table entry.
  unsigned WalkIndexBits = 9;   ///< log2(entries per page-table node).

  // Cycle cost model (relative costs; absolute 2003 latencies are not the
  // reproduction target).
  unsigned ComputeCycles = 1;     ///< Non-memory instruction.
  unsigned MemPenalty = 200;      ///< Added when the last level misses.
  unsigned PrefetchIssueCost = 1; ///< Hardware prefetch instruction.
  unsigned GuardedLoadCost = 3;   ///< Guarded load incl. exception check.
  /// Guarded load whose software exception check *fails*: the recovery
  /// branch retires, nothing is loaded, no cache/TLB fill happens.
  unsigned GuardFaultCost = 6;
  /// Cycles until a prefetched line becomes usable; an access arriving
  /// earlier pays the remainder (partial hiding).
  unsigned PrefetchFillLatency = 60;

  /// Index into Levels of the shallowest level a software prefetch
  /// fills (it also fills every deeper level). 1 = Pentium 4 behaviour
  /// (L2 only), 0 = Athlon MP behaviour (L1 and L2).
  unsigned SwFillLevel = 1;

  HwPrefetchKind HwPrefetch = HwPrefetchKind::Stream;
  /// Per-cell off switch (the hardware-prefetch experiment facet): when
  /// false the configured kind is inert without renaming the machine.
  bool HwPrefetchEnabled = true;
  unsigned HwPrefetchStreams = 8; ///< Stream detector entries.
  unsigned HwPrefetchDegree = 2;  ///< Lines issued per trigger (both kinds).
  unsigned RptEntries = 64;       ///< RPT table entries.

  bool operator==(const MachineConfig &) const = default;

  // -- Derived accessors ----------------------------------------------

  unsigned numLevels() const { return static_cast<unsigned>(Levels.size()); }
  const CacheLevel &level(unsigned I) const { return Levels[I]; }
  /// Line size of the level software prefetches fill — the line the
  /// planner schedules against (compile-relevant).
  unsigned swFillLineBytes() const {
    return Levels[SwFillLevel].Geometry.LineBytes;
  }
  /// The kind actually in effect (None when the facet switch is off).
  HwPrefetchKind effectiveHwPrefetch() const {
    return HwPrefetchEnabled ? HwPrefetch : HwPrefetchKind::None;
  }

  // -- Validation / registry / serialization --------------------------

  /// Empty string when the config is internally consistent; otherwise a
  /// human-readable list of every violated invariant.
  std::string validate() const;

  /// The 2 GHz Intel Pentium 4 of the evaluation.
  static MachineConfig pentium4();
  /// The 1.2 GHz AMD Athlon MP of the evaluation.
  static MachineConfig athlonMP();
  /// A three-level (L1/L2/LLC) machine with walked TLB misses and an
  /// RPT prefetcher — the "modern" end of the evaluation axis.
  static MachineConfig modern3();

  /// Builtin registry lookup. Names match case-insensitively ignoring
  /// spaces/underscores/dashes, so "pentium4", "Pentium 4" and
  /// "PENTIUM_4" all resolve. nullopt for unknown names.
  static std::optional<MachineConfig> byName(const std::string &Name);
  /// Canonical names byName() accepts, for diagnostics.
  static std::vector<std::string> knownNames();

  /// Parses one machine file (schema: DESIGN.md, "Machine models").
  /// Returns nullopt and sets \p Error on unreadable files, malformed
  /// JSON, unknown enum strings, or validate() failures.
  static std::optional<MachineConfig> fromFile(const std::string &Path,
                                               std::string *Error = nullptr);
  /// fromFile() minus the filesystem: parses the JSON text directly.
  static std::optional<MachineConfig>
  fromJsonText(const std::string &Text, std::string *Error = nullptr);

  /// Serializes the config in the machine-file schema; fromJsonText() of
  /// the result reproduces the config exactly (round-trip tested).
  std::string toJsonText() const;
};

} // namespace sim
} // namespace spf

#endif // SPF_SIM_MACHINECONFIG_H
