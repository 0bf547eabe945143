//===- harness/JsonReader.cpp ---------------------------------------------===//

#include "harness/JsonReader.h"

#include <cctype>
#include <cstdlib>

using namespace spf;
using namespace spf::harness;

const JsonValue &JsonValue::get(const std::string &Key) const {
  static const JsonValue Null;
  auto It = Obj.find(Key);
  return It == Obj.end() ? Null : It->second;
}

uint64_t JsonValue::getU64(const std::string &Key, uint64_t Default) const {
  const JsonValue &V = get(Key);
  if (V.K != Kind::Number)
    return Default;
  return V.IsUnsigned ? V.U64 : static_cast<uint64_t>(V.Num);
}

int64_t JsonValue::getI64(const std::string &Key, int64_t Default) const {
  const JsonValue &V = get(Key);
  if (V.K != Kind::Number)
    return Default;
  if (V.IsUnsigned)
    return static_cast<int64_t>(V.U64);
  return static_cast<int64_t>(V.Num);
}

double JsonValue::getDouble(const std::string &Key, double Default) const {
  const JsonValue &V = get(Key);
  return V.K == Kind::Number ? V.Num : Default;
}

bool JsonValue::getBool(const std::string &Key, bool Default) const {
  const JsonValue &V = get(Key);
  return V.K == Kind::Bool ? V.B : Default;
}

std::string JsonValue::getString(const std::string &Key,
                                 const std::string &Default) const {
  const JsonValue &V = get(Key);
  return V.K == Kind::String ? V.Str : Default;
}

namespace spf {
namespace harness {

class JsonParser {
public:
  JsonParser(const std::string &Text, std::string *Error)
      : S(Text), Err(Error) {}

  std::unique_ptr<JsonValue> run() {
    auto V = std::make_unique<JsonValue>();
    if (!parseValue(*V))
      return nullptr;
    skipWs();
    if (Pos != S.size())
      return fail("trailing garbage"), nullptr;
    return V;
  }

private:
  void fail(const std::string &Why) {
    if (Err && Err->empty())
      *Err = Why + " at offset " + std::to_string(Pos);
  }

  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                              S[Pos] == '\n' || S[Pos] == '\r'))
      ++Pos;
  }

  bool accept(char C) {
    skipWs();
    if (Pos < S.size() && S[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool literal(const char *Lit) {
    size_t N = 0;
    while (Lit[N])
      ++N;
    if (S.compare(Pos, N, Lit) != 0)
      return false;
    Pos += N;
    return true;
  }

  bool parseValue(JsonValue &V) {
    skipWs();
    if (Pos >= S.size())
      return fail("unexpected end of input"), false;
    char C = S[Pos];
    if (C == '{')
      return parseObject(V);
    if (C == '[')
      return parseArray(V);
    if (C == '"')
      return parseString(V);
    if (C == 't') {
      if (!literal("true"))
        return fail("bad literal"), false;
      V.K = JsonValue::Kind::Bool;
      V.B = true;
      return true;
    }
    if (C == 'f') {
      if (!literal("false"))
        return fail("bad literal"), false;
      V.K = JsonValue::Kind::Bool;
      V.B = false;
      return true;
    }
    if (C == 'n') {
      if (!literal("null"))
        return fail("bad literal"), false;
      V.K = JsonValue::Kind::Null;
      return true;
    }
    return parseNumber(V);
  }

  bool parseObject(JsonValue &V) {
    ++Pos; // '{'
    V.K = JsonValue::Kind::Object;
    skipWs();
    if (accept('}'))
      return true;
    while (true) {
      skipWs();
      JsonValue Key;
      if (Pos >= S.size() || S[Pos] != '"' || !parseString(Key))
        return fail("expected object key"), false;
      if (!accept(':'))
        return fail("expected ':'"), false;
      JsonValue Member;
      if (!parseValue(Member))
        return false;
      V.Obj.emplace(std::move(Key.Str), std::move(Member));
      if (accept(','))
        continue;
      if (accept('}'))
        return true;
      return fail("expected ',' or '}'"), false;
    }
  }

  bool parseArray(JsonValue &V) {
    ++Pos; // '['
    V.K = JsonValue::Kind::Array;
    skipWs();
    if (accept(']'))
      return true;
    while (true) {
      JsonValue Elem;
      if (!parseValue(Elem))
        return false;
      V.Arr.push_back(std::move(Elem));
      if (accept(','))
        continue;
      if (accept(']'))
        return true;
      return fail("expected ',' or ']'"), false;
    }
  }

  bool parseString(JsonValue &V) {
    ++Pos; // '"'
    V.K = JsonValue::Kind::String;
    std::string &Out = V.Str;
    while (Pos < S.size()) {
      char C = S[Pos++];
      if (C == '"')
        return true;
      if (C != '\\') {
        Out.push_back(C);
        continue;
      }
      if (Pos >= S.size())
        break;
      char E = S[Pos++];
      switch (E) {
      case '"': Out.push_back('"'); break;
      case '\\': Out.push_back('\\'); break;
      case '/': Out.push_back('/'); break;
      case 'b': Out.push_back('\b'); break;
      case 'f': Out.push_back('\f'); break;
      case 'n': Out.push_back('\n'); break;
      case 'r': Out.push_back('\r'); break;
      case 't': Out.push_back('\t'); break;
      case 'u': {
        if (Pos + 4 > S.size())
          return fail("bad \\u escape"), false;
        unsigned Code = 0;
        for (int I = 0; I != 4; ++I) {
          char H = S[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("bad \\u escape"), false;
        }
        // JsonWriter only escapes control chars this way; encode the
        // general case as UTF-8 anyway.
        if (Code < 0x80) {
          Out.push_back(static_cast<char>(Code));
        } else if (Code < 0x800) {
          Out.push_back(static_cast<char>(0xC0 | (Code >> 6)));
          Out.push_back(static_cast<char>(0x80 | (Code & 0x3F)));
        } else {
          Out.push_back(static_cast<char>(0xE0 | (Code >> 12)));
          Out.push_back(static_cast<char>(0x80 | ((Code >> 6) & 0x3F)));
          Out.push_back(static_cast<char>(0x80 | (Code & 0x3F)));
        }
        break;
      }
      default:
        return fail("bad escape"), false;
      }
    }
    return fail("unterminated string"), false;
  }

  bool parseNumber(JsonValue &V) {
    size_t Start = Pos;
    if (Pos < S.size() && S[Pos] == '-')
      ++Pos;
    bool IntOnly = true;
    while (Pos < S.size()) {
      char C = S[Pos];
      if (std::isdigit(static_cast<unsigned char>(C))) {
        ++Pos;
      } else if (C == '.' || C == 'e' || C == 'E' || C == '+' || C == '-') {
        IntOnly = false;
        ++Pos;
      } else {
        break;
      }
    }
    if (Pos == Start)
      return fail("expected value"), false;
    std::string Tok = S.substr(Start, Pos - Start);
    char *End = nullptr;
    V.K = JsonValue::Kind::Number;
    V.Num = std::strtod(Tok.c_str(), &End);
    if (End != Tok.c_str() + Tok.size())
      return fail("bad number"), false;
    if (IntOnly && Tok[0] != '-') {
      V.U64 = std::strtoull(Tok.c_str(), nullptr, 10);
      V.IsUnsigned = true;
    }
    return true;
  }

  const std::string &S;
  std::string *Err;
  size_t Pos = 0;
};

} // namespace harness
} // namespace spf

std::unique_ptr<JsonValue> JsonValue::parse(const std::string &Text,
                                            std::string *Error) {
  JsonParser P(Text, Error);
  return P.run();
}
