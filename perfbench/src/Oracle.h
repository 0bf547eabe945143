//===- perfbench/Oracle.h - Stored reference results ----------------------===//
///
/// \file
/// The correctness oracle: every operation a workload performs (a sweep
/// cell, or one world's compile under one pass configuration) reduces to
/// a Fingerprint of the simulated or compiled quantities that must never
/// drift. A Reference is a stored set of fingerprints for one
/// (workload, seed, scale, epochs); reference/<workload>-<seed>.json
/// holds the full-scale ones. A run whose configuration matches a stored
/// reference counts every fingerprint mismatch as a failed operation.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ORACLE_H
#define PERFBENCH_ORACLE_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace perfbench {

/// Named integer fields of one operation, e.g. cycles, l1_load_misses.
using Fingerprint = std::map<std::string, uint64_t>;

/// What a reference was recorded for; a run uses a reference only when
/// all four match.
struct RunKey {
  std::string Workload;
  uint64_t Seed = 0;
  double Scale = 1.0;
  unsigned Epochs = 1;
};

class Reference {
public:
  /// Loads <Dir>/<workload>-<seed>.json. Returns nullopt when the file
  /// does not exist or was recorded for another scale or epoch count;
  /// \p Error is set (and nullopt returned) when it exists but is
  /// malformed.
  static std::optional<Reference> load(const std::string &Dir,
                                       const RunKey &Key, std::string &Error);

  /// Records \p Ops as the reference for \p Key under \p Dir.
  static bool store(const std::string &Dir, const RunKey &Key,
                    const std::map<std::string, Fingerprint> &Ops,
                    std::string &Error);

  /// True when \p Got equals the stored fingerprint of \p Op. A missing
  /// operation is a mismatch. \p Why names the first differing field.
  bool matches(const std::string &Op, const Fingerprint &Got,
               std::string &Why) const;

private:
  std::map<std::string, Fingerprint> Ops;
};

std::string referencePath(const std::string &Dir, const RunKey &Key);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_H
