//===- support/FaultInjection.h - Deterministic chaos sites -----*- C++ -*-===//
///
/// \file
/// Deterministic, seeded fault injection for the inspect→plan→simulate
/// pipeline. Each named site carries its own SplitMix64 stream, so the
/// set of injected faults depends only on (config, stream salt) — never
/// on thread scheduling — and the parallel-equals-serial property of the
/// experiment driver survives chaos runs.
///
/// Sites:
///  * `inspect-read` — object inspection's reads of the real heap turn
///    into `unknown` lattice values (the inspector's safe response);
///  * `alloc`        — an interpreter allocation's fast path fails,
///    forcing the GC-and-retry slow path;
///  * `guard-addr`   — a guarded load's computed address is corrupted
///    before the software exception check, exercising the guard-failure
///    path end to end.
///
/// Every site exercises a recovery path of the program itself — per-loop
/// degradation of the paper's pass, the allocation slow path, the guard
/// failure path — rather than of the experiment harness.
///
/// Configuration: programmatic (`FaultConfig`) or the environment knob
///
///   SPF_FAULTS=site:rate:seed[,site:rate:seed...]   (site may be "all")
///
/// Sites are *activated* per thread with a `FaultScope`; code declares
/// them with `SPF_FAULT_POINT(site)`, which evaluates to false at zero
/// cost when no scope is active, and compiles away entirely when the
/// library is built with `-DSPF_FAULT_INJECTION=0` (CMake option).
///
//===----------------------------------------------------------------------===//

#ifndef SPF_SUPPORT_FAULTINJECTION_H
#define SPF_SUPPORT_FAULTINJECTION_H

#include "support/SplitMix64.h"

#include <array>
#include <optional>
#include <string>

namespace spf {
namespace support {

/// The named fault sites.
enum class FaultSite : unsigned {
  InspectHeapRead = 0, ///< "inspect-read"
  Alloc = 1,           ///< "alloc"
  GuardAddr = 2,       ///< "guard-addr"
};

inline constexpr unsigned NumFaultSites = 3;

/// The spelling used in SPF_FAULTS and reports.
const char *faultSiteName(FaultSite S);

/// Inverse of faultSiteName; nullopt for unknown spellings.
std::optional<FaultSite> parseFaultSiteName(const std::string &Name);

/// Per-site rates and seeds.
struct FaultConfig {
  struct Site {
    bool Enabled = false;
    double Rate = 0.0; ///< Probability in [0, 1] that a point fires.
    uint64_t Seed = 0;
  };
  std::array<Site, NumFaultSites> Sites;

  bool anyEnabled() const;
  Site &site(FaultSite S) { return Sites[static_cast<unsigned>(S)]; }
  const Site &site(FaultSite S) const {
    return Sites[static_cast<unsigned>(S)];
  }

  /// Parses "site:rate:seed[,site:rate:seed...]"; "all" enables every
  /// site with the given rate/seed. Returns nullopt (and sets \p Error)
  /// on malformed input.
  static std::optional<FaultConfig> parse(const std::string &Spec,
                                          std::string *Error = nullptr);

  /// Config from the SPF_FAULTS environment variable; everything
  /// disabled when unset. A malformed value is a configuration error:
  /// diagnosed on stderr and the process exits nonzero before any cell
  /// runs (silently ignoring it would run the sweep without the chaos
  /// the caller asked for).
  static FaultConfig fromEnv();
};

/// Draws the per-site fault decisions. Deterministic: a given
/// (config, salt) pair always yields the same decision sequence,
/// regardless of which thread runs it. The harness salts per cell so
/// schedules don't matter.
class FaultInjector {
public:
  FaultInjector() = default;
  explicit FaultInjector(const FaultConfig &Cfg, uint64_t StreamSalt = 0);

  /// True when the next decision at \p S is an injected fault.
  bool shouldFail(FaultSite S);

  uint64_t injectedCount(FaultSite S) const {
    return States[static_cast<unsigned>(S)].Injected;
  }
  uint64_t totalInjected() const;

private:
  struct SiteState {
    bool Enabled = false;
    double Rate = 0.0;
    SplitMix64 Rng{0};
    uint64_t Injected = 0;
  };
  std::array<SiteState, NumFaultSites> States;
};

/// RAII thread-local activation of an injector. Fault points fire only
/// while a scope is active on the current thread; scopes nest (the
/// previous injector is restored on destruction).
class FaultScope {
public:
  explicit FaultScope(FaultInjector &I) : Prev(Current) { Current = &I; }
  ~FaultScope() { Current = Prev; }

  FaultScope(const FaultScope &) = delete;
  FaultScope &operator=(const FaultScope &) = delete;

  /// The active injector on this thread, or nullptr.
  static FaultInjector *current() { return Current; }

private:
  FaultInjector *Prev;
  // constinit: statically initialized, so access needs no TLS init-guard
  // wrapper (whose instrumentation GCC's UBSan misreads as a possible
  // null store).
  static thread_local constinit FaultInjector *Current;
};

} // namespace support
} // namespace spf

/// Compile-time master switch; the CMake option SPF_FAULT_INJECTION
/// (default ON) defines it to 0 to compile every site out.
#ifndef SPF_FAULT_INJECTION
#define SPF_FAULT_INJECTION 1
#endif

#if SPF_FAULT_INJECTION
/// True when the named site should fail here. A cheap thread-local read
/// when no injector is active; a no-op constant when compiled out.
#define SPF_FAULT_POINT(SITE)                                                  \
  (::spf::support::FaultScope::current() != nullptr &&                         \
   ::spf::support::FaultScope::current()->shouldFail(SITE))
#else
#define SPF_FAULT_POINT(SITE) false
#endif

#endif // SPF_SUPPORT_FAULTINJECTION_H
