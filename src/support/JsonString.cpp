//===--- JsonString.cpp - JSON string literal escaping --------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "support/JsonString.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

namespace {

constexpr uint64_t Ones = 0x0101010101010101ull;
constexpr uint64_t Highs = Ones * 0x80;

/// Sets the high bit of each byte of \p W that is below 0x20, '"' or '\\'
/// (SWAR has-less and has-zero tests). A borrow can also flag a byte above
/// a true hit, never one below it, so the lowest flag is always exact.
uint64_t specialMask(uint64_t W) {
  uint64_t Quote = W ^ (Ones * '"');
  uint64_t Slash = W ^ (Ones * '\\');
  return (((W - Ones * 0x20) & ~W) | ((Quote - Ones) & ~Quote) |
          ((Slash - Ones) & ~Slash)) &
         Highs;
}

bool isSpecial(char C) {
  return static_cast<unsigned char>(C) < 0x20 || C == '"' || C == '\\';
}

/// The second byte of each special byte's short escape; 'u' for \u00XX.
constexpr std::array<char, 0x60> ShortEscapes = [] {
  std::array<char, 0x60> T{};
  for (size_t C = 0; C < 0x20; ++C)
    T[C] = 'u';
  T['"'] = '"';
  T['\\'] = '\\';
  T['\n'] = 'n';
  T['\r'] = 'r';
  T['\t'] = 't';
  T['\b'] = 'b';
  T['\f'] = 'f';
  return T;
}();

/// Writes the escape for the special byte \p C at \p D; returns the end.
char *writeEscape(char *D, unsigned char C) {
  static constexpr char Hex[] = "0123456789abcdef";
  D[0] = '\\';
  D[1] = ShortEscapes[C];
  if (D[1] != 'u')
    return D + 2;
  D[2] = '0';
  D[3] = '0';
  D[4] = Hex[C >> 4];
  D[5] = Hex[C & 0xf];
  return D + 6;
}

} // namespace

const char *lockin::support::findJsonSpecial(const char *I, const char *E) {
  for (; E - I >= 8; I += 8) {
    uint64_t W;
    std::memcpy(&W, I, sizeof(W));
    if (uint64_t Mask = specialMask(W)) {
      if constexpr (std::endian::native == std::endian::little)
        return I + std::countr_zero(Mask) / 8;
      else
        break; // the first byte is the high one: let the byte loop find it
    }
  }
  for (; I != E; ++I)
    if (isSpecial(*I))
      return I;
  return E;
}

void lockin::support::appendJsonString(std::string &Out,
                                       std::string_view S) {
  const char *I = S.data();
  const char *E = I + S.size();
  // Room for the quotes, every byte and a margin of one short escape in
  // eight bytes. An escape writes at most 6 bytes for the 1 it consumes;
  // when escapes overrun the margin, the buffer doubles.
  size_t Pos = Out.size();
  Out.resize(Pos + S.size() + S.size() / 8 + 8);
  char *D = Out.data() + Pos;
  *D++ = '"';
  while (true) {
    const char *Hit = findJsonSpecial(I, E);
    if (Hit != I) {
      std::memcpy(D, I, Hit - I);
      D += Hit - I;
    }
    if (Hit == E)
      break;
    // The escape, the rest of the input and the closing quote must fit.
    size_t Need = 6 + static_cast<size_t>(E - Hit);
    if (static_cast<size_t>(Out.data() + Out.size() - D) < Need) {
      Pos = D - Out.data();
      Out.resize(std::max(2 * Out.size(), Pos + Need));
      D = Out.data() + Pos;
    }
    D = writeEscape(D, static_cast<unsigned char>(*Hit));
    I = Hit + 1;
  }
  *D++ = '"';
  Out.resize(D - Out.data());
}
