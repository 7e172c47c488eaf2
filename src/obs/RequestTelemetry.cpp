//===--- RequestTelemetry.cpp - Request-scoped spans + flight recorder ---------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "obs/RequestTelemetry.h"

using namespace lockin;
using namespace lockin::obs;

const char *obs::reqPhaseName(ReqPhase P) {
  switch (P) {
  case ReqPhase::Queue:
    return "queue";
  case ReqPhase::Parse:
    return "parse";
  case ReqPhase::Fingerprint:
    return "fingerprint";
  case ReqPhase::Analyze:
    return "analyze";
  case ReqPhase::Render:
    return "render";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(size_t Capacity)
    : Cap(Capacity < 1 ? 1 : Capacity) {}

void FlightRecorder::record(FlightRecord R) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Ring.size() < Cap) {
    Ring.push_back(std::move(R));
  } else {
    Ring[Written % Cap] = std::move(R);
  }
  ++Written;
}

void FlightRecorder::record(const RequestContext &Ctx, uint64_t TotalNs) {
  FlightRecord R;
  R.Id = Ctx.id();
  R.StartNs = Ctx.startNs();
  R.TotalNs = TotalNs;
  for (unsigned I = 0; I < kNumReqPhases; ++I)
    R.PhaseNs[I] = Ctx.phaseNs(static_cast<ReqPhase>(I));
  R.CacheHits = Ctx.CacheHits;
  R.CacheMisses = Ctx.CacheMisses;
  R.DirtyCone = Ctx.DirtyCone;
  R.Sections = Ctx.Sections;
  R.Peer = Ctx.Peer;
  R.Op = Ctx.Op;
  R.Unit = Ctx.Unit;
  R.Outcome = Ctx.Outcome;
  record(std::move(R));
}

std::vector<FlightRecord> FlightRecorder::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<FlightRecord> Out;
  Out.reserve(Ring.size());
  if (Ring.size() < Cap) {
    Out = Ring;
  } else {
    for (size_t I = 0; I < Cap; ++I)
      Out.push_back(Ring[(Written + I) % Cap]);
  }
  return Out;
}

uint64_t FlightRecorder::recorded() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Written;
}

support::Json FlightRecorder::toJson() const {
  using support::Json;
  Json Records = Json::array();
  for (const FlightRecord &R : snapshot()) {
    Json Phases = Json::object();
    for (unsigned I = 0; I < kNumReqPhases; ++I)
      Phases.set(reqPhaseName(static_cast<ReqPhase>(I)),
                 Json::uinteger(R.PhaseNs[I]));
    Records.push(Json::object({{"id", Json::uinteger(R.Id)},
                               {"op", Json::string(R.Op)},
                               {"unit", Json::string(R.Unit)},
                               {"peer", Json::string(R.Peer)},
                               {"outcome", Json::string(R.Outcome)},
                               {"start_ns", Json::uinteger(R.StartNs)},
                               {"total_ns", Json::uinteger(R.TotalNs)},
                               {"phases_ns", std::move(Phases)},
                               {"cache_hits", Json::integer(R.CacheHits)},
                               {"cache_misses", Json::integer(R.CacheMisses)},
                               {"dirty_cone", Json::integer(R.DirtyCone)},
                               {"sections", Json::integer(R.Sections)}}));
  }
  Json Doc = Json::object({{"capacity", Json::uinteger(Cap)},
                           {"recorded", Json::uinteger(recorded())}});
  Doc.set("records", std::move(Records));
  return Doc;
}

bool FlightRecorder::dump(Logger &Log, std::string_view Reason,
                          uint64_t MinGapNs) {
  std::vector<FlightRecord> Records;
  uint64_t Total;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Written == 0)
      return false;
    uint64_t Now = nowNs();
    if (LastDumpNs != 0 && Now - LastDumpNs < MinGapNs)
      return false;
    LastDumpNs = Now;
    Total = Written;
  }
  Records = snapshot();
  if (!Log.enabled(LogLevel::Warn))
    return false;
  Log.event(LogLevel::Warn, "flightrecord.dump")
      .str("reason", Reason)
      .num("records", Records.size())
      .num("recorded", Total);
  for (const FlightRecord &R : Records) {
    LogEvent E = Log.event(LogLevel::Warn, "flightrecord.record");
    E.num("req", R.Id)
        .str("op", R.Op)
        .str("unit", R.Unit)
        .str("peer", R.Peer)
        .str("outcome", R.Outcome)
        .num("total_ns", R.TotalNs);
    for (unsigned I = 0; I < kNumReqPhases; ++I)
      E.num(std::string(reqPhaseName(static_cast<ReqPhase>(I))) + "_ns",
            R.PhaseNs[I]);
    E.num("cache_hits", R.CacheHits)
        .num("cache_misses", R.CacheMisses)
        .num("dirty_cone", R.DirtyCone)
        .num("sections", R.Sections);
  }
  return true;
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Ring.clear();
  Written = 0;
  LastDumpNs = 0;
}
