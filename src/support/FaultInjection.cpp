//===- support/FaultInjection.cpp -----------------------------------------===//

#include "support/FaultInjection.h"

#include "support/Env.h"

#include <cstdio>
#include <cstdlib>

using namespace spf;
using namespace spf::support;

thread_local constinit FaultInjector *FaultScope::Current = nullptr;

const char *support::faultSiteName(FaultSite S) {
  switch (S) {
  case FaultSite::InspectHeapRead:
    return "inspect-read";
  case FaultSite::Alloc:
    return "alloc";
  case FaultSite::GuardAddr:
    return "guard-addr";
  }
  return "?";
}

std::optional<FaultSite> support::parseFaultSiteName(const std::string &Name) {
  for (unsigned I = 0; I != NumFaultSites; ++I) {
    FaultSite S = static_cast<FaultSite>(I);
    if (Name == faultSiteName(S))
      return S;
  }
  return std::nullopt;
}

bool FaultConfig::anyEnabled() const {
  for (const Site &S : Sites)
    if (S.Enabled && S.Rate > 0.0)
      return true;
  return false;
}

namespace {

/// One "site:rate:seed" triple into \p Cfg. Returns false on malformed
/// input with \p Error describing why.
bool parseEntry(const std::string &Entry, FaultConfig &Cfg,
                std::string *Error) {
  auto Fail = [&](const std::string &Why) {
    if (Error)
      *Error = "bad fault spec '" + Entry + "': " + Why;
    return false;
  };

  size_t C1 = Entry.find(':');
  if (C1 == std::string::npos)
    return Fail("expected site:rate:seed");
  size_t C2 = Entry.find(':', C1 + 1);
  if (C2 == std::string::npos)
    return Fail("expected site:rate:seed");

  std::string SiteName = Entry.substr(0, C1);
  std::string RateStr = Entry.substr(C1 + 1, C2 - C1 - 1);
  std::string SeedStr = Entry.substr(C2 + 1);

  char *End = nullptr;
  double Rate = std::strtod(RateStr.c_str(), &End);
  if (RateStr.empty() || *End != '\0' || Rate < 0.0 || Rate > 1.0)
    return Fail("rate must be a number in [0, 1]");

  End = nullptr;
  unsigned long long Seed = std::strtoull(SeedStr.c_str(), &End, 0);
  if (SeedStr.empty() || *End != '\0')
    return Fail("seed must be an unsigned integer");

  auto Apply = [&](FaultSite S) {
    FaultConfig::Site &Site = Cfg.site(S);
    Site.Enabled = true;
    Site.Rate = Rate;
    // Give "all" distinct per-site streams even with one shared seed.
    Site.Seed = static_cast<uint64_t>(Seed) +
                0x9e3779b97f4a7c15ULL * static_cast<unsigned>(S);
  };

  if (SiteName == "all") {
    for (unsigned I = 0; I != NumFaultSites; ++I)
      Apply(static_cast<FaultSite>(I));
    return true;
  }
  std::optional<FaultSite> S = parseFaultSiteName(SiteName);
  if (!S)
    return Fail("unknown site '" + SiteName + "'");
  Apply(*S);
  return true;
}

} // namespace

std::optional<FaultConfig> FaultConfig::parse(const std::string &Spec,
                                              std::string *Error) {
  FaultConfig Cfg;
  if (Spec.empty()) {
    if (Error)
      *Error = "empty fault spec";
    return std::nullopt;
  }
  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    size_t End = Comma == std::string::npos ? Spec.size() : Comma;
    if (!parseEntry(Spec.substr(Pos, End - Pos), Cfg, Error))
      return std::nullopt;
    if (Comma == std::string::npos)
      break;
    Pos = Comma + 1;
  }
  return Cfg;
}

FaultConfig FaultConfig::fromEnv() {
  const char *Spec = std::getenv("SPF_FAULTS");
  if (!Spec || !*Spec)
    return FaultConfig();
  std::string Error;
  if (std::optional<FaultConfig> Cfg = parse(Spec, &Error))
    return *Cfg;
  envConfigError("SPF_FAULTS", Spec, Error);
}

FaultInjector::FaultInjector(const FaultConfig &Cfg, uint64_t StreamSalt) {
  for (unsigned I = 0; I != NumFaultSites; ++I) {
    const FaultConfig::Site &In = Cfg.Sites[I];
    SiteState &St = States[I];
    St.Enabled = In.Enabled && In.Rate > 0.0;
    St.Rate = In.Rate;
    // Whiten the salt through one SplitMix64 step so adjacent cell
    // indices yield unrelated streams.
    SplitMix64 Mix(StreamSalt + 0x632be59bd9b4e019ULL * (I + 1));
    St.Rng = SplitMix64(In.Seed ^ Mix.next());
  }
}

bool FaultInjector::shouldFail(FaultSite S) {
  SiteState &St = States[static_cast<unsigned>(S)];
  if (!St.Enabled)
    return false;
  bool Fire = St.Rng.nextDouble() < St.Rate;
  if (Fire)
    ++St.Injected;
  return Fire;
}

uint64_t FaultInjector::totalInjected() const {
  uint64_t Total = 0;
  for (const SiteState &St : States)
    Total += St.Injected;
  return Total;
}
