//===--- Json.h - Minimal JSON value, parser, and writer --------*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON value of the project: a small tree, a strict
/// recursive-descent parser (depth-limited, full escape handling including
/// surrogate pairs), and a compact writer. Objects preserve insertion
/// order, so serialized documents are deterministic.
///
/// Every document the tools emit is built as a Json value and written by
/// Json::write: the service protocol, checker reports (JSON and SARIF),
/// the metrics and flight-record files, Chrome trace events and the bench
/// outputs. Numbers are kept as int64 when they parse exactly (seeds and
/// section ids round-trip losslessly) and as double otherwise.
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_SUPPORT_JSON_H
#define LOCKIN_SUPPORT_JSON_H

#include "support/JsonString.h"

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lockin {
namespace support {

class Json {
public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  Json() : K(Kind::Null) {}
  static Json null() { return Json(); }
  static Json boolean(bool B) {
    Json J;
    J.K = Kind::Bool;
    J.B = B;
    return J;
  }
  static Json integer(int64_t I) {
    Json J;
    J.K = Kind::Int;
    J.I = I;
    return J;
  }
  /// \p U as an integer, or as a double past the int64 range.
  static Json uinteger(uint64_t U) {
    return U <= static_cast<uint64_t>(INT64_MAX)
               ? integer(static_cast<int64_t>(U))
               : number(static_cast<double>(U));
  }
  static Json number(double D) {
    Json J;
    J.K = Kind::Double;
    J.D = D;
    return J;
  }
  static Json string(std::string S) {
    Json J;
    J.K = Kind::String;
    J.S = std::move(S);
    return J;
  }
  static Json array() {
    Json J;
    J.K = Kind::Array;
    return J;
  }
  static Json object() {
    Json J;
    J.K = Kind::Object;
    return J;
  }
  /// An array or object holding copies of \p Items / \p Members (distinct
  /// keys) in order; move large subtrees in with push/set instead.
  static Json array(std::initializer_list<Json> Items) {
    Json J = array();
    J.Items.assign(Items.begin(), Items.end());
    return J;
  }
  static Json
  object(std::initializer_list<std::pair<std::string, Json>> Members) {
    Json J = object();
    J.Members.assign(Members.begin(), Members.end());
    return J;
  }

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }
  bool isString() const { return K == Kind::String; }
  bool isNumber() const { return K == Kind::Int || K == Kind::Double; }
  bool isBool() const { return K == Kind::Bool; }

  bool asBool(bool Default = false) const {
    return K == Kind::Bool ? B : Default;
  }
  int64_t asInt(int64_t Default = 0) const {
    if (K == Kind::Int)
      return I;
    if (K == Kind::Double)
      return static_cast<int64_t>(D);
    return Default;
  }
  uint64_t asUint(uint64_t Default = 0) const {
    if (K == Kind::Int)
      return I < 0 ? Default : static_cast<uint64_t>(I);
    if (K == Kind::Double)
      return D < 0 ? Default : static_cast<uint64_t>(D);
    return Default;
  }
  double asDouble(double Default = 0) const {
    if (K == Kind::Double)
      return D;
    if (K == Kind::Int)
      return static_cast<double>(I);
    return Default;
  }
  const std::string &asString() const { return S; }

  // Array access.
  const std::vector<Json> &items() const { return Items; }
  Json &push(Json V) {
    Items.push_back(std::move(V));
    return Items.back();
  }

  // Object access.
  const std::vector<std::pair<std::string, Json>> &members() const {
    return Members;
  }
  /// Null if absent.
  const Json *get(std::string_view Key) const {
    for (const auto &[Name, Value] : Members)
      if (Name == Key)
        return &Value;
    return nullptr;
  }
  Json &set(std::string Key, Json V) {
    for (auto &[Name, Value] : Members)
      if (Name == Key) {
        Value = std::move(V);
        return Value;
      }
    Members.emplace_back(std::move(Key), std::move(V));
    return Members.back().second;
  }

  /// Convenience typed getters for flat request objects.
  std::string getString(std::string_view Key,
                        std::string Default = {}) const {
    const Json *V = get(Key);
    return V && V->isString() ? V->asString() : Default;
  }
  int64_t getInt(std::string_view Key, int64_t Default = 0) const {
    const Json *V = get(Key);
    return V && V->isNumber() ? V->asInt(Default) : Default;
  }
  uint64_t getUint(std::string_view Key, uint64_t Default = 0) const {
    const Json *V = get(Key);
    return V && V->isNumber() ? V->asUint(Default) : Default;
  }
  bool getBool(std::string_view Key, bool Default = false) const {
    const Json *V = get(Key);
    return V && V->isBool() ? V->asBool(Default) : Default;
  }

  /// Compact serialization (no whitespace); appends to \p Out.
  void write(std::string &Out) const;
  std::string str() const {
    std::string Out;
    write(Out);
    return Out;
  }

  /// Strict parse of a full document; trailing non-space input is an
  /// error. On failure returns false and fills \p Error.
  static bool parse(std::string_view Text, Json &Out, std::string &Error);

private:
  Kind K;
  bool B = false;
  int64_t I = 0;
  double D = 0;
  std::string S;
  std::vector<Json> Items;
  std::vector<std::pair<std::string, Json>> Members;
};

/// Writes \p Path ("-" means stdout) through \p Write. On failure to open
/// or write the file prints "error: cannot write <path>" to stderr and
/// returns false.
bool writeFileOrStdout(const std::string &Path,
                       const std::function<void(std::ostream &)> &Write);

/// writeFileOrStdout of \p Doc's compact text and a newline.
bool writeJsonFile(const std::string &Path, const Json &Doc);

} // namespace support
} // namespace lockin

#endif // LOCKIN_SUPPORT_JSON_H
