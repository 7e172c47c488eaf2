//===--- JsonString.cpp - JSON string literal escaping --------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "support/JsonString.h"

#include <cstdio>

void lockin::support::appendJsonString(std::string &Out,
                                       std::string_view S) {
  Out += '"';
  size_t Run = 0; // start of the pending run of bytes that need no escape
  for (size_t I = 0; I < S.size(); ++I) {
    unsigned char C = static_cast<unsigned char>(S[I]);
    if (C >= 0x20 && C != '"' && C != '\\')
      continue;
    Out.append(S, Run, I - Run);
    Run = I + 1;
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    default: {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    }
    }
  }
  Out.append(S, Run);
  Out += '"';
}
