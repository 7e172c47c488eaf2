//===--- Log.cpp - Leveled structured JSON logging -----------------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "obs/Log.h"

#include "support/JsonString.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>

using namespace lockin;
using namespace lockin::obs;

const char *obs::logLevelName(LogLevel L) {
  switch (L) {
  case LogLevel::Debug:
    return "debug";
  case LogLevel::Info:
    return "info";
  case LogLevel::Warn:
    return "warn";
  case LogLevel::Error:
    return "error";
  case LogLevel::Off:
    return "off";
  }
  return "info";
}

bool obs::parseLogLevel(std::string_view Text, LogLevel &Out) {
  for (LogLevel L : {LogLevel::Debug, LogLevel::Info, LogLevel::Warn,
                     LogLevel::Error, LogLevel::Off})
    if (Text == logLevelName(L)) {
      Out = L;
      return true;
    }
  return false;
}

namespace {

uint64_t wallUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

} // namespace

LogEvent::LogEvent(Logger *Owner, LogLevel Level, std::string_view Event)
    : L(Owner) {
  Buf.reserve(160);
  char Head[64];
  std::snprintf(Head, sizeof(Head), "{\"ts_us\": %" PRIu64 ", \"level\": \"%s\"",
                wallUs(), logLevelName(Level));
  Buf += Head;
  Buf += ", \"event\": ";
  support::appendJsonString(Buf, Event);
}

LogEvent::~LogEvent() {
  if (!L)
    return;
  Buf += "}\n";
  L->write(Buf);
}

void LogEvent::key(std::string_view Key) {
  Buf += ", ";
  support::appendJsonString(Buf, Key);
  Buf += ": ";
}

LogEvent &LogEvent::str(std::string_view Key, std::string_view Value) {
  if (!L)
    return *this;
  key(Key);
  support::appendJsonString(Buf, Value);
  return *this;
}

LogEvent &LogEvent::num(std::string_view Key, uint64_t Value) {
  if (!L)
    return *this;
  key(Key);
  char Buf2[24];
  std::snprintf(Buf2, sizeof(Buf2), "%" PRIu64, Value);
  Buf += Buf2;
  return *this;
}

LogEvent &LogEvent::snum(std::string_view Key, int64_t Value) {
  if (!L)
    return *this;
  key(Key);
  char Buf2[24];
  std::snprintf(Buf2, sizeof(Buf2), "%" PRId64, Value);
  Buf += Buf2;
  return *this;
}

LogEvent &LogEvent::real(std::string_view Key, double Value) {
  if (!L)
    return *this;
  key(Key);
  char Buf2[32];
  std::snprintf(Buf2, sizeof(Buf2), "%.6g", Value);
  Buf += Buf2;
  return *this;
}

LogEvent &LogEvent::flag(std::string_view Key, bool Value) {
  if (!L)
    return *this;
  key(Key);
  Buf += Value ? "true" : "false";
  return *this;
}

void Logger::setSink(std::FILE *To) {
  std::lock_guard<std::mutex> Lock(Mu);
  Sink = To;
}

LogEvent Logger::event(LogLevel L, std::string_view Event) {
  if (!enabled(L))
    return LogEvent();
  return LogEvent(this, L, Event);
}

void Logger::write(std::string_view Line) {
  std::lock_guard<std::mutex> Lock(Mu);
  std::FILE *To = Sink ? Sink : stderr;
  std::fwrite(Line.data(), 1, Line.size(), To);
  std::fflush(To);
  Lines.fetch_add(1, std::memory_order_relaxed);
}

Logger &obs::log() {
  static Logger L;
  return L;
}
