//===--- RequestTelemetry.h - Request-scoped spans + flight recorder -*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Request-scoped telemetry for the analysis service. A RequestContext is
/// created per request at read time and travels with the request through
/// the queue and the incremental analyzer; each pipeline phase brackets
/// itself with a PhaseScope. When the request completes, the server rolls
/// the spans into the metrics registry (`service.queue_ns`,
/// `service.phase.*_ns`, `service.total_ns`), emits a per-request track
/// into the Chrome tracer (EventKind::RequestPhaseSpan, pid 3), and
/// pushes a FlightRecord into the FlightRecorder — a bounded ring of the
/// last N completed-request summaries that is dumped through the
/// structured logger on overload rejection, request timeout, and SIGTERM
/// drain, and served on demand by the `flightrecord` request op.
///
/// Threading: a RequestContext is owned by exactly one thread at a time
/// (connection thread → queue → worker thread; the queue's mutex orders
/// the hand-off), so its members are plain. The FlightRecorder is shared
/// and mutex-guarded — it is touched once per request, never on a hot
/// path.
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_OBS_REQUESTTELEMETRY_H
#define LOCKIN_OBS_REQUESTTELEMETRY_H

#include "obs/Log.h"
#include "obs/Obs.h"
#include "support/Json.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace lockin {
namespace obs {

/// The phases a service request moves through. Queue is the wait between
/// enqueue and a worker picking the job up; the rest are the incremental
/// analyzer's pipeline stages.
enum class ReqPhase : uint8_t {
  Queue = 0,   ///< bounded-queue wait before a worker dequeues
  Parse,       ///< front half of compile(): parse + sema + lower + callgraph
  Fingerprint, ///< module fingerprint, section keys, dirty-cone accounting
  Analyze,     ///< cache probe + lock inference over the dirty cone
  Render,      ///< report assembly + snapshot publication
};
inline constexpr unsigned kNumReqPhases = 5;

const char *reqPhaseName(ReqPhase P);

/// One bracketed interval. StartNs of 0 means the phase never ran.
struct PhaseSpan {
  uint64_t StartNs = 0;
  uint64_t DurNs = 0;
};

/// Per-request telemetry carrier: dense id, monotonic start timestamp
/// (stamped at request read time), one span per phase, and the outcome
/// metadata the flight recorder keeps.
class RequestContext {
public:
  RequestContext(uint64_t Id, std::string PeerLabel, std::string OpName)
      : Peer(std::move(PeerLabel)), Op(std::move(OpName)), IdV(Id),
        StartNsV(nowNs()) {}

  uint64_t id() const { return IdV; }
  uint64_t startNs() const { return StartNsV; }

  void begin(ReqPhase P) {
    Phases[static_cast<unsigned>(P)].StartNs = nowNs();
  }
  void end(ReqPhase P) {
    PhaseSpan &S = Phases[static_cast<unsigned>(P)];
    S.DurNs += nowNs() - S.StartNs;
  }
  const PhaseSpan &span(ReqPhase P) const {
    return Phases[static_cast<unsigned>(P)];
  }
  /// Overwrites a phase with an externally measured interval (e.g. the
  /// read-to-rejection wait of an overload-rejected request).
  void setSpan(ReqPhase P, uint64_t StartNs, uint64_t DurNs) {
    Phases[static_cast<unsigned>(P)] = PhaseSpan{StartNs, DurNs};
  }
  uint64_t phaseNs(ReqPhase P) const { return span(P).DurNs; }

  // Filled in by the server / analyzer as the request progresses.
  std::string Peer;
  std::string Op;
  std::string Unit;
  std::string Outcome = "ok";
  uint32_t CacheHits = 0;
  uint32_t CacheMisses = 0;
  uint32_t DirtyCone = 0;
  uint32_t Sections = 0;

private:
  uint64_t IdV;
  uint64_t StartNsV;
  PhaseSpan Phases[kNumReqPhases];
};

/// RAII phase bracket; a null context makes it a no-op, so analyzer code
/// can open scopes unconditionally.
class PhaseScope {
public:
  PhaseScope(RequestContext *Context, ReqPhase Phase)
      : Ctx(Context), P(Phase) {
    if (Ctx)
      Ctx->begin(P);
  }
  ~PhaseScope() {
    if (Ctx)
      Ctx->end(P);
  }
  PhaseScope(const PhaseScope &) = delete;
  PhaseScope &operator=(const PhaseScope &) = delete;

private:
  RequestContext *Ctx;
  ReqPhase P;
};

/// A completed-request summary, small enough to keep hundreds of.
struct FlightRecord {
  uint64_t Id = 0;
  uint64_t StartNs = 0;
  uint64_t TotalNs = 0;
  uint64_t PhaseNs[kNumReqPhases] = {};
  uint32_t CacheHits = 0;
  uint32_t CacheMisses = 0;
  uint32_t DirtyCone = 0;
  uint32_t Sections = 0;
  std::string Peer;
  std::string Op;
  std::string Unit;
  std::string Outcome;
};

/// Bounded ring of the last N FlightRecords. record() is O(1); snapshot()
/// copies oldest-first. dump() writes every retained record through the
/// structured logger, rate-limited so an overload storm produces one dump,
/// not one per rejected request.
class FlightRecorder {
public:
  explicit FlightRecorder(size_t Capacity = 256);

  void record(FlightRecord R);
  /// Convenience: summarize a finished context (TotalNs measured by the
  /// caller so recording cost is excluded).
  void record(const RequestContext &Ctx, uint64_t TotalNs);

  /// Retained records, oldest-first.
  std::vector<FlightRecord> snapshot() const;
  /// Total records ever pushed (monotonic).
  uint64_t recorded() const;
  size_t capacity() const { return Cap; }

  /// {"capacity":..,"recorded":..,"records":[...]} oldest-first: what
  /// --flightrecord-out writes and the daemon's `flightrecord` op returns.
  support::Json toJson() const;

  /// Emits one "flightrecord.dump" header line plus one line per retained
  /// record at Warn level. Returns false when suppressed by the rate
  /// limit (one dump per \p MinGapNs) or when the ring is empty.
  bool dump(Logger &Log, std::string_view Reason,
            uint64_t MinGapNs = 5'000'000'000ull);

  void clear();

private:
  mutable std::mutex Mu;
  std::vector<FlightRecord> Ring; // Ring[Written % Cap] is the write slot
  size_t Cap;
  uint64_t Written = 0;
  uint64_t LastDumpNs = 0;
};

} // namespace obs
} // namespace lockin

#endif // LOCKIN_OBS_REQUESTTELEMETRY_H
