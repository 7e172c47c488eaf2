//===--- Json.h - The protocol's JSON value ---------------------*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
//
// The service protocol speaks the project's one JSON value
// (support/Json.h), reachable here as service::Json.
//
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_SERVICE_JSON_H
#define LOCKIN_SERVICE_JSON_H

#include "support/Json.h"

namespace lockin {
namespace service {
using support::appendJsonString;
using support::Json;
} // namespace service
} // namespace lockin

#endif // LOCKIN_SERVICE_JSON_H
