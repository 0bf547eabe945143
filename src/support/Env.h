//===- support/Env.h - Fail-fast environment configuration ------*- C++ -*-===//
///
/// \file
/// Strict parsing for the SPF_* environment knobs. A malformed value is a
/// configuration error, not a condition to paper over: silently falling
/// back to a default turns a typo ("SPF_SCALE=O.1") into an
/// experiment run under the wrong configuration. Every helper here either
/// returns a well-formed value or diagnoses the variable on stderr and
/// exits nonzero before any cell runs.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_SUPPORT_ENV_H
#define SPF_SUPPORT_ENV_H

#include <cstdint>
#include <string>

namespace spf {
namespace support {

/// Exit code used for rejected environment/flag configuration.
inline constexpr int ConfigErrorExit = 2;

/// Diagnoses a rejected configuration value on stderr and exits with
/// ConfigErrorExit. \p Value may be null (variable unset).
[[noreturn]] void envConfigError(const char *Var, const char *Value,
                                 const std::string &Why);

/// Finite double from \p Var; \p Default when unset or empty. Anything
/// else (trailing garbage, NaN, infinity) fails fast.
double envDouble(const char *Var, double Default);

/// Unsigned integer from \p Var; \p Default when unset or empty.
uint64_t envU64(const char *Var, uint64_t Default);

} // namespace support
} // namespace spf

#endif // SPF_SUPPORT_ENV_H
