//===--- Trace.cpp - Per-thread ring-buffer event tracer -----------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "obs/RequestTelemetry.h"
#include "runtime/Mode.h"
#include "support/JsonString.h"

#include <bit>
#include <cinttypes>
#include <cstdio>

using namespace lockin;
using namespace lockin::obs;

namespace {

/// Distinguishes tracer instances (and clear() generations) in the
/// per-thread buffer cache without dangling-pointer ABA.
std::atomic<uint64_t> NextTracerGen{1};

struct TlCacheEntry {
  uint64_t Gen = 0;
  const Tracer *T = nullptr;
  ThreadTraceBuffer *B = nullptr;
};

} // namespace

ThreadTraceBuffer::ThreadTraceBuffer(size_t Capacity) {
  size_t Cap = std::bit_ceil(Capacity < 2 ? size_t(2) : Capacity);
  Ring.resize(Cap);
  Mask = Cap - 1;
  Owner = std::this_thread::get_id();
}

ThreadTraceBuffer &Tracer::buffer() {
  thread_local TlCacheEntry Cache[4] = {};
  uint64_t Gen = Epoch.load(std::memory_order_acquire);
  if (Gen == 0) {
    // First buffer() on this tracer instance: take a process-unique
    // generation so cache entries never alias across instances.
    uint64_t Fresh = NextTracerGen.fetch_add(1, std::memory_order_relaxed);
    uint64_t Expected = 0;
    Epoch.compare_exchange_strong(Expected, Fresh,
                                  std::memory_order_acq_rel);
    Gen = Epoch.load(std::memory_order_acquire);
  }
  for (TlCacheEntry &E : Cache)
    if (E.T == this && E.Gen == Gen)
      return *E.B;

  std::lock_guard<std::mutex> Lock(Mu);
  ThreadTraceBuffer *B = nullptr;
  std::thread::id Me = std::this_thread::get_id();
  for (const auto &Buf : Buffers)
    if (Buf->Owner == Me) {
      B = Buf.get();
      break;
    }
  if (!B) {
    Buffers.push_back(std::make_unique<ThreadTraceBuffer>(Capacity));
    B = Buffers.back().get();
    B->TidV = static_cast<uint32_t>(Buffers.size());
    MetricsRegistry &Reg = Metrics ? *Metrics : obs::metrics();
    B->DroppedCounter = &Reg.counter("trace.dropped_events");
  }
  // Shift-in LRU: slot 0 is most recent.
  for (size_t I = std::size(Cache) - 1; I > 0; --I)
    Cache[I] = Cache[I - 1];
  Cache[0] = {Gen, this, B};
  return *B;
}

uint32_t Tracer::internName(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  for (size_t I = 0; I < Names.size(); ++I)
    if (Names[I] == Name)
      return static_cast<uint32_t>(I);
  Names.emplace_back(Name);
  return static_cast<uint32_t>(Names.size() - 1);
}

uint64_t Tracer::totalDropped() const {
  std::lock_guard<std::mutex> Lock(Mu);
  uint64_t N = 0;
  for (const auto &B : Buffers)
    N += B->dropped();
  return N;
}

uint64_t Tracer::totalWritten() const {
  std::lock_guard<std::mutex> Lock(Mu);
  uint64_t N = 0;
  for (const auto &B : Buffers)
    N += B->written();
  return N;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Buffers.clear();
  Names.clear();
  Epoch.store(NextTracerGen.fetch_add(1, std::memory_order_relaxed),
              std::memory_order_release);
}

namespace {

bool isSimKind(EventKind K) {
  return K == EventKind::SimOpSpan || K == EventKind::SimWaitSpan ||
         K == EventKind::SimAbort;
}

} // namespace

void Tracer::writeChromeJson(std::ostream &OS) const {
  std::lock_guard<std::mutex> Lock(Mu);
  OS << "{\"traceEvents\": [\n";
  bool First = true;
  auto Emit = [&](const char *Line) {
    OS << (First ? "" : ",\n") << Line;
    First = false;
  };
  char Line[256];

  // Process/thread metadata rows. pid 1 = real time, pid 2 = simulated.
  Emit("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
       "\"args\": {\"name\": \"lockin\"}}");
  Emit("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, "
       "\"args\": {\"name\": \"lockin-sim (ts in cycles)\"}}");
  Emit("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 3, "
       "\"args\": {\"name\": \"lockin-service (per-request)\"}}");
  for (const auto &B : Buffers) {
    std::snprintf(Line, sizeof(Line),
                  "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                  "\"tid\": %" PRIu32
                  ", \"args\": {\"name\": \"thread %" PRIu32 "\"}}",
                  B->tid(), B->tid());
    Emit(Line);
  }

  for (const auto &B : Buffers) {
    size_t N = B->size();
    for (size_t I = 0; I < N; ++I) {
      const TraceEvent &E = B->at(I);
      // pid 1 = real time, pid 2 = simulated time, pid 3 = service
      // requests (one Chrome "thread" row per request id).
      unsigned Pid = isSimKind(E.Kind)                      ? 2
                     : E.Kind == EventKind::RequestPhaseSpan ? 3
                                                             : 1;
      uint32_t Tid = E.Tid ? E.Tid : B->tid();
      // Chrome wants microseconds; simulated events pass cycles through
      // 1:1 (the sim's own time base).
      double Ts = isSimKind(E.Kind) ? static_cast<double>(E.TsNs)
                                    : static_cast<double>(E.TsNs) / 1000.0;
      double Dur = isSimKind(E.Kind) ? static_cast<double>(E.DurNs)
                                     : static_cast<double>(E.DurNs) / 1000.0;
      std::string Name;
      std::string Args;
      // Sized for the worst-case X-span tail: two %.3f timestamps can
      // each run ~17 chars when the clock origin is large, plus the
      // longest args payload.
      char Buf[192];
      switch (E.Kind) {
      case EventKind::SectionSpan:
        Name = "section";
        std::snprintf(Buf, sizeof(Buf), "{\"section\": %" PRIu64 "}", E.A);
        Args = Buf;
        break;
      case EventKind::AcquireSpan:
        Name = "acquireAll";
        std::snprintf(Buf, sizeof(Buf), "{\"nodes\": %" PRIu64 "}", E.A);
        Args = Buf;
        break;
      case EventKind::NodeWaitSpan:
        Name = "lock-wait";
        std::snprintf(Buf, sizeof(Buf),
                      "{\"node\": %" PRIu64 ", \"mode\": \"%s\"}", E.A,
                      rt::modeName(static_cast<rt::Mode>(E.Mode)));
        Args = Buf;
        break;
      case EventKind::PassSpan:
        Name = E.A < Names.size() ? Names[E.A] : "pass";
        Args = "{}";
        break;
      case EventKind::StepsCount:
        Name = "interp-steps";
        break;
      case EventKind::SimOpSpan:
        Name = "sim-op";
        std::snprintf(Buf, sizeof(Buf), "{\"op\": %" PRIu64 "}", E.A);
        Args = Buf;
        break;
      case EventKind::SimWaitSpan:
        Name = "sim-blocked";
        Args = "{}";
        break;
      case EventKind::SimAbort:
        Name = "sim-abort";
        Args = "{}";
        break;
      case EventKind::PolicyEvent: {
        // Mirrors rt::adaptive::PolicyAction (obs cannot include the
        // runtime's adaptive header without a dependency cycle).
        static const char *const Actions[] = {
            "bias-set",     "bias-clear", "escalate", "deescalate",
            "migrate-stm",  "migrate-lock"};
        unsigned A = E.Mode < 6 ? E.Mode : 0;
        Name = "policy:";
        Name += Actions[A];
        std::snprintf(Buf, sizeof(Buf), "{\"target\": %" PRIu64 "}", E.A);
        Args = Buf;
        break;
      }
      case EventKind::RequestPhaseSpan: {
        unsigned P = E.Mode < kNumReqPhases ? E.Mode : 0;
        Name = "req:";
        Name += reqPhaseName(static_cast<ReqPhase>(P));
        std::snprintf(Buf, sizeof(Buf), "{\"request\": %" PRIu64 "}", E.A);
        Args = Buf;
        break;
      }
      }
      std::string Out = "{\"name\": ";
      support::appendJsonString(Out, Name);
      Out += ", \"ph\": \"";
      if (E.Kind == EventKind::StepsCount) {
        std::snprintf(Buf, sizeof(Buf),
                      "C\", \"ts\": %.3f, \"pid\": %u, \"tid\": %" PRIu32
                      ", \"args\": {\"steps\": %" PRIu64 "}}",
                      Ts, Pid, Tid, E.A);
        Out += Buf;
      } else if (E.Kind == EventKind::SimAbort ||
                 E.Kind == EventKind::PolicyEvent) {
        std::snprintf(Buf, sizeof(Buf),
                      "i\", \"s\": \"t\", \"ts\": %.3f, \"pid\": %u, "
                      "\"tid\": %" PRIu32 ", \"args\": %s}",
                      Ts, Pid, Tid, Args.c_str());
        Out += Buf;
      } else {
        std::snprintf(Buf, sizeof(Buf),
                      "X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": %u, "
                      "\"tid\": %" PRIu32 ", \"args\": %s}",
                      Ts, Dur, Pid, Tid, Args.c_str());
        Out += Buf;
      }
      Emit(Out.c_str());
    }
  }
  OS << "\n], \"droppedEvents\": ";
  uint64_t Dropped = 0;
  for (const auto &B : Buffers)
    Dropped += B->dropped();
  OS << Dropped << "}\n";
}

Tracer &obs::tracer() {
  static Tracer T;
  return T;
}
