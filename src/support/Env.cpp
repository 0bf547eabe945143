//===- support/Env.cpp ----------------------------------------------------===//

#include "support/Env.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

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
