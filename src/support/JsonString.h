//===--- JsonString.h - JSON string literal escaping ------------*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON string escaper: Json::write (support/Json.h) uses it for
/// every document the tools emit, and the structured log for its lines.
/// Quotes and backslashes are escaped; \n \r \t \b \f use their
/// short forms; other control characters become \u00XX; every other byte
/// (UTF-8 included) is copied as is.
///
/// The escaper and the JSON parser share one scan that tests 8
/// bytes per step for the bytes a JSON string cannot hold as is, so a
/// run of plain bytes is copied with one memcpy.
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_SUPPORT_JSONSTRING_H
#define LOCKIN_SUPPORT_JSONSTRING_H

#include <string>
#include <string_view>

namespace lockin {
namespace support {

/// Returns the first byte in [\p I, \p E) that is a control byte (< 0x20),
/// '"' or '\\', or \p E if there is none.
const char *findJsonSpecial(const char *I, const char *E);

/// Escapes \p S as a JSON string literal (with quotes) into \p Out.
void appendJsonString(std::string &Out, std::string_view S);

} // namespace support
} // namespace lockin

#endif // LOCKIN_SUPPORT_JSONSTRING_H
