//===--- Json.cpp - Minimal JSON value, parser, and writer ----------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>

using namespace lockin;
using namespace lockin::support;

void Json::write(std::string &Out) const {
  switch (K) {
  case Kind::Null:
    Out += "null";
    break;
  case Kind::Bool:
    Out += B ? "true" : "false";
    break;
  case Kind::Int: {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(I));
    Out += Buf;
    break;
  }
  case Kind::Double: {
    if (!std::isfinite(D)) {
      Out += "null"; // JSON has no Inf/NaN
      break;
    }
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%.17g", D);
    Out += Buf;
    break;
  }
  case Kind::String:
    appendJsonString(Out, S);
    break;
  case Kind::Array: {
    Out += '[';
    for (size_t Idx = 0; Idx < Items.size(); ++Idx) {
      if (Idx)
        Out += ',';
      Items[Idx].write(Out);
    }
    Out += ']';
    break;
  }
  case Kind::Object: {
    Out += '{';
    for (size_t Idx = 0; Idx < Members.size(); ++Idx) {
      if (Idx)
        Out += ',';
      appendJsonString(Out, Members[Idx].first);
      Out += ':';
      Members[Idx].second.write(Out);
    }
    Out += '}';
    break;
  }
  }
}

namespace {

constexpr unsigned MaxDepth = 64;

class Parser {
public:
  Parser(std::string_view Text, std::string &Error)
      : Cur(Text.data()), End(Text.data() + Text.size()), Error(Error) {}

  bool run(Json &Out) {
    skipSpace();
    if (!parseValue(Out, 0))
      return false;
    skipSpace();
    if (Cur != End)
      return fail("trailing characters after document");
    return true;
  }

private:
  bool fail(const char *Msg) {
    Error = Msg;
    return false;
  }

  void skipSpace() {
    while (Cur != End &&
           (*Cur == ' ' || *Cur == '\t' || *Cur == '\n' || *Cur == '\r'))
      ++Cur;
  }

  bool literal(const char *Word) {
    size_t Len = std::strlen(Word);
    if (static_cast<size_t>(End - Cur) < Len ||
        std::strncmp(Cur, Word, Len) != 0)
      return false;
    Cur += Len;
    return true;
  }

  bool parseValue(Json &Out, unsigned Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    if (Cur == End)
      return fail("unexpected end of input");
    switch (*Cur) {
    case 'n':
      if (!literal("null"))
        return fail("bad literal");
      Out = Json::null();
      return true;
    case 't':
      if (!literal("true"))
        return fail("bad literal");
      Out = Json::boolean(true);
      return true;
    case 'f':
      if (!literal("false"))
        return fail("bad literal");
      Out = Json::boolean(false);
      return true;
    case '"': {
      std::string S;
      if (!parseString(S))
        return false;
      Out = Json::string(std::move(S));
      return true;
    }
    case '[': {
      ++Cur;
      Out = Json::array();
      skipSpace();
      if (Cur != End && *Cur == ']') {
        ++Cur;
        return true;
      }
      while (true) {
        Json Item;
        skipSpace();
        if (!parseValue(Item, Depth + 1))
          return false;
        Out.push(std::move(Item));
        skipSpace();
        if (Cur == End)
          return fail("unterminated array");
        if (*Cur == ',') {
          ++Cur;
          continue;
        }
        if (*Cur == ']') {
          ++Cur;
          return true;
        }
        return fail("expected ',' or ']' in array");
      }
    }
    case '{': {
      ++Cur;
      Out = Json::object();
      skipSpace();
      if (Cur != End && *Cur == '}') {
        ++Cur;
        return true;
      }
      while (true) {
        skipSpace();
        if (Cur == End || *Cur != '"')
          return fail("expected object key");
        std::string Key;
        if (!parseString(Key))
          return false;
        skipSpace();
        if (Cur == End || *Cur != ':')
          return fail("expected ':' after object key");
        ++Cur;
        skipSpace();
        Json Value;
        if (!parseValue(Value, Depth + 1))
          return false;
        Out.set(std::move(Key), std::move(Value));
        skipSpace();
        if (Cur == End)
          return fail("unterminated object");
        if (*Cur == ',') {
          ++Cur;
          continue;
        }
        if (*Cur == '}') {
          ++Cur;
          return true;
        }
        return fail("expected ',' or '}' in object");
      }
    }
    default:
      return parseNumber(Out);
    }
  }

  bool parseHex4(unsigned &Out) {
    if (End - Cur < 4)
      return fail("truncated \\u escape");
    Out = 0;
    for (int I = 0; I < 4; ++I) {
      char C = *Cur++;
      Out <<= 4;
      if (C >= '0' && C <= '9')
        Out |= static_cast<unsigned>(C - '0');
      else if (C >= 'a' && C <= 'f')
        Out |= static_cast<unsigned>(C - 'a' + 10);
      else if (C >= 'A' && C <= 'F')
        Out |= static_cast<unsigned>(C - 'A' + 10);
      else
        return fail("bad hex digit in \\u escape");
    }
    return true;
  }

  static char *appendUtf8(char *D, unsigned Code) {
    if (Code < 0x80) {
      *D++ = static_cast<char>(Code);
    } else if (Code < 0x800) {
      *D++ = static_cast<char>(0xC0 | (Code >> 6));
      *D++ = static_cast<char>(0x80 | (Code & 0x3F));
    } else if (Code < 0x10000) {
      *D++ = static_cast<char>(0xE0 | (Code >> 12));
      *D++ = static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
      *D++ = static_cast<char>(0x80 | (Code & 0x3F));
    } else {
      *D++ = static_cast<char>(0xF0 | (Code >> 18));
      *D++ = static_cast<char>(0x80 | ((Code >> 12) & 0x3F));
      *D++ = static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
      *D++ = static_cast<char>(0x80 | (Code & 0x3F));
    }
    return D;
  }

  /// Decodes through a raw cursor into \p S, which doubles whenever a
  /// plain run plus one decoded escape (at most 4 bytes: decoded text is
  /// never longer than its source) would not fit.
  bool parseString(std::string &S) {
    ++Cur; // opening quote
    size_t Pos = S.size();
    char *D = S.data() + Pos;
    while (true) {
      const char *Hit = support::findJsonSpecial(Cur, End);
      size_t Need = static_cast<size_t>(Hit - Cur) + 4;
      if (static_cast<size_t>(S.data() + S.size() - D) < Need) {
        Pos = D - S.data();
        S.resize(std::max(2 * S.size(), Pos + Need));
        D = S.data() + Pos;
      }
      if (Hit != Cur) {
        std::memcpy(D, Cur, Hit - Cur);
        D += Hit - Cur;
        Cur = Hit;
      }
      if (Cur == End)
        return fail("unterminated string");
      if (*Cur == '"') {
        ++Cur;
        S.resize(D - S.data());
        return true;
      }
      if (*Cur != '\\')
        return fail("raw control character in string");
      ++Cur;
      if (Cur == End)
        return fail("unterminated escape");
      char E = *Cur++;
      switch (E) {
      case '"':
      case '\\':
      case '/':
        *D++ = E;
        break;
      case 'n':
        *D++ = '\n';
        break;
      case 'r':
        *D++ = '\r';
        break;
      case 't':
        *D++ = '\t';
        break;
      case 'b':
        *D++ = '\b';
        break;
      case 'f':
        *D++ = '\f';
        break;
      case 'u': {
        unsigned Code;
        if (!parseHex4(Code))
          return false;
        // Surrogate pair: combine; a lone surrogate becomes U+FFFD.
        if (Code >= 0xD800 && Code <= 0xDBFF) {
          if (End - Cur >= 6 && Cur[0] == '\\' && Cur[1] == 'u') {
            Cur += 2;
            unsigned Low;
            if (!parseHex4(Low))
              return false;
            if (Low >= 0xDC00 && Low <= 0xDFFF)
              Code = 0x10000 + ((Code - 0xD800) << 10) + (Low - 0xDC00);
            else
              Code = 0xFFFD;
          } else {
            Code = 0xFFFD;
          }
        } else if (Code >= 0xDC00 && Code <= 0xDFFF) {
          Code = 0xFFFD;
        }
        D = appendUtf8(D, Code);
        break;
      }
      default:
        return fail("bad escape character");
      }
    }
  }

  bool parseNumber(Json &Out) {
    const char *Start = Cur;
    if (Cur != End && *Cur == '-')
      ++Cur;
    bool SawDigit = false;
    while (Cur != End && *Cur >= '0' && *Cur <= '9') {
      ++Cur;
      SawDigit = true;
    }
    bool IsInt = true;
    if (Cur != End && *Cur == '.') {
      IsInt = false;
      ++Cur;
      while (Cur != End && *Cur >= '0' && *Cur <= '9')
        ++Cur;
    }
    if (Cur != End && (*Cur == 'e' || *Cur == 'E')) {
      IsInt = false;
      ++Cur;
      if (Cur != End && (*Cur == '+' || *Cur == '-'))
        ++Cur;
      while (Cur != End && *Cur >= '0' && *Cur <= '9')
        ++Cur;
    }
    if (!SawDigit)
      return fail("bad number");
    std::string Text(Start, Cur);
    if (IsInt) {
      errno = 0;
      char *NumEnd = nullptr;
      long long V = std::strtoll(Text.c_str(), &NumEnd, 10);
      if (errno == 0 && NumEnd && *NumEnd == '\0') {
        Out = Json::integer(V);
        return true;
      }
      // Overflowed int64: fall through to double.
    }
    Out = Json::number(std::strtod(Text.c_str(), nullptr));
    return true;
  }

  const char *Cur;
  const char *End;
  std::string &Error;
};

} // namespace

bool Json::parse(std::string_view Text, Json &Out, std::string &Error) {
  Parser P(Text, Error);
  return P.run(Out);
}

bool lockin::support::writeFileOrStdout(
    const std::string &Path, const std::function<void(std::ostream &)> &Write) {
  if (Path == "-") {
    Write(std::cout);
    std::cout.flush();
    return true;
  }
  std::ofstream Out(Path);
  if (Out)
    Write(Out);
  if (!Out || !Out.flush()) {
    std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
    return false;
  }
  return true;
}

bool lockin::support::writeJsonFile(const std::string &Path,
                                    const Json &Doc) {
  std::string Text = Doc.str();
  Text += '\n';
  return writeFileOrStdout(Path, [&](std::ostream &OS) { OS << Text; });
}
