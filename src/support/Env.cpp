//===- support/Env.cpp ----------------------------------------------------===//

#include "support/Env.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace spf;
using namespace spf::support;

void support::envConfigError(const char *Var, const char *Value,
                             const std::string &Why) {
  std::fprintf(stderr, "spf: invalid %s=\"%s\": %s\n", Var,
               Value ? Value : "", Why.c_str());
  std::exit(ConfigErrorExit);
}

double support::envDouble(const char *Var, double Default) {
  const char *S = std::getenv(Var);
  if (!S || !*S)
    return Default;
  char *End = nullptr;
  double V = std::strtod(S, &End);
  if (End == S || *End != '\0')
    envConfigError(Var, S, "expected a number");
  if (!std::isfinite(V))
    envConfigError(Var, S, "expected a finite number");
  return V;
}

uint64_t support::envU64(const char *Var, uint64_t Default) {
  const char *S = std::getenv(Var);
  if (!S || !*S)
    return Default;
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (End == S || *End != '\0' || std::strchr(S, '-'))
    envConfigError(Var, S, "expected a non-negative integer");
  if (errno == ERANGE)
    envConfigError(Var, S, "out of range");
  return static_cast<uint64_t>(V);
}
