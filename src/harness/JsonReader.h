//===- harness/JsonReader.h - Minimal JSON DOM parser -----------*- C++ -*-===//
///
/// \file
/// A small recursive-descent JSON parser for the reports harness/JsonWriter
/// emits (spf-report, report diffs, the benchmark's references). It
/// parses exactly what JsonWriter emits plus standard JSON escapes.
///
/// Numbers keep full 64-bit integer precision: a value that lexes as a
/// non-negative integer is stored as uint64 alongside the double, so
/// cycle/instruction counters survive a round trip bit-for-bit (a
/// double-only DOM would corrupt anything above 2^53).
///
//===----------------------------------------------------------------------===//

#ifndef SPF_HARNESS_JSONREADER_H
#define SPF_HARNESS_JSONREADER_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace spf {
namespace harness {

class JsonValue {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }

  bool boolean() const { return B; }
  double number() const { return Num; }
  /// Full-precision integer value; only meaningful when the token lexed
  /// as a non-negative integer (isUnsigned()).
  uint64_t u64() const { return U64; }
  bool isUnsigned() const { return IsUnsigned; }
  const std::string &str() const { return Str; }
  const std::vector<JsonValue> &array() const { return Arr; }

  /// Object member by key, or null when absent (missing fields read as
  /// zero-valued defaults, which keeps the formats forward-compatible).
  const JsonValue &get(const std::string &Key) const;
  bool has(const std::string &Key) const { return Obj.count(Key) != 0; }
  /// All object members, sorted by key.
  const std::map<std::string, JsonValue> &objectMembers() const { return Obj; }

  // Typed accessors with defaults for absent/mismatched members.
  uint64_t getU64(const std::string &Key, uint64_t Default = 0) const;
  double getDouble(const std::string &Key, double Default = 0.0) const;
  bool getBool(const std::string &Key, bool Default = false) const;
  std::string getString(const std::string &Key,
                        const std::string &Default = "") const;

  /// Parses \p Text as one JSON document (trailing whitespace allowed,
  /// trailing garbage rejected). Returns nullopt-like null pointer and
  /// sets \p Error on malformed input.
  static std::unique_ptr<JsonValue> parse(const std::string &Text,
                                          std::string *Error = nullptr);

private:
  friend class JsonParser;

  Kind K = Kind::Null;
  bool B = false;
  double Num = 0.0;
  uint64_t U64 = 0;
  bool IsUnsigned = false;
  std::string Str;
  std::vector<JsonValue> Arr;
  std::map<std::string, JsonValue> Obj;
};

} // namespace harness
} // namespace spf

#endif // SPF_HARNESS_JSONREADER_H
