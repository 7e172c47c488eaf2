//===--- Trace.cpp - Per-thread ring-buffer event tracer -----------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "obs/RequestTelemetry.h"
#include "runtime/Mode.h"
#include "support/Json.h"

#include <bit>

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
  using support::Json;
  std::lock_guard<std::mutex> Lock(Mu);
  // The envelope is written around the events, and each event is its own
  // small Json value, so a full ring never becomes one tree.
  std::string Text = "{";
  support::appendJsonString(Text, "traceEvents");
  Text += ":[";
  bool First = true;
  auto Emit = [&](const Json &Event) {
    if (!First)
      Text += ",\n";
    First = false;
    Event.write(Text);
    OS << Text;
    Text.clear();
  };
  // A metadata row naming process \p Pid, or its thread \p Tid if nonzero.
  auto Meta = [](const char *What, unsigned Pid, uint32_t Tid,
                 std::string Name) {
    Json Row = Json::object({{"name", Json::string(What)},
                             {"ph", Json::string("M")},
                             {"pid", Json::integer(Pid)}});
    if (Tid)
      Row.set("tid", Json::integer(Tid));
    Row.set("args", Json::object({{"name", Json::string(std::move(Name))}}));
    return Row;
  };

  // Process/thread metadata rows. pid 1 = real time, pid 2 = simulated,
  // pid 3 = service requests.
  const char *const Processes[] = {"lockin", "lockin-sim (ts in cycles)",
                                   "lockin-service (per-request)"};
  for (unsigned Pid = 1; Pid <= 3; ++Pid)
    Emit(Meta("process_name", Pid, 0, Processes[Pid - 1]));
  for (const auto &B : Buffers)
    Emit(Meta("thread_name", 1, B->tid(),
              "thread " + std::to_string(B->tid())));

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
      double Scale = isSimKind(E.Kind) ? 1.0 : 1000.0;
      std::string Name;
      const char *Arg = nullptr; // the key E.A is reported under, if any
      switch (E.Kind) {
      case EventKind::SectionSpan:
        Name = "section";
        Arg = "section";
        break;
      case EventKind::AcquireSpan:
        Name = "acquireAll";
        Arg = "nodes";
        break;
      case EventKind::NodeWaitSpan:
        Name = "lock-wait";
        Arg = "node";
        break;
      case EventKind::PassSpan:
        Name = E.A < Names.size() ? Names[E.A] : "pass";
        break;
      case EventKind::StepsCount:
        Name = "interp-steps";
        Arg = "steps";
        break;
      case EventKind::SimOpSpan:
        Name = "sim-op";
        Arg = "op";
        break;
      case EventKind::SimWaitSpan:
        Name = "sim-blocked";
        break;
      case EventKind::SimAbort:
        Name = "sim-abort";
        break;
      case EventKind::PolicyEvent: {
        // Mirrors rt::adaptive::PolicyAction (obs cannot include the
        // runtime's adaptive header without a dependency cycle).
        static const char *const Actions[] = {
            "bias-set",     "bias-clear", "escalate", "deescalate",
            "migrate-stm",  "migrate-lock"};
        Name = "policy:";
        Name += Actions[E.Mode < 6 ? E.Mode : 0];
        Arg = "target";
        break;
      }
      case EventKind::RequestPhaseSpan:
        Name = "req:";
        Name += reqPhaseName(
            static_cast<ReqPhase>(E.Mode < kNumReqPhases ? E.Mode : 0));
        Arg = "request";
        break;
      }
      bool Instant =
          E.Kind == EventKind::SimAbort || E.Kind == EventKind::PolicyEvent;
      bool Counter = E.Kind == EventKind::StepsCount;
      Json Out = Json::object(
          {{"name", Json::string(std::move(Name))},
           {"ph", Json::string(Counter ? "C" : Instant ? "i" : "X")}});
      if (Instant)
        Out.set("s", Json::string("t"));
      Out.set("ts", Json::number(static_cast<double>(E.TsNs) / Scale));
      if (!Counter && !Instant)
        Out.set("dur", Json::number(static_cast<double>(E.DurNs) / Scale));
      Out.set("pid", Json::integer(Pid));
      Out.set("tid", Json::integer(Tid));
      Json &Args = Out.set("args", Json::object());
      if (Arg)
        Args.set(Arg, Json::uinteger(E.A));
      if (E.Kind == EventKind::NodeWaitSpan)
        Args.set("mode",
                 Json::string(rt::modeName(static_cast<rt::Mode>(E.Mode))));
      Emit(Out);
    }
  }

  uint64_t Dropped = 0;
  for (const auto &B : Buffers)
    Dropped += B->dropped();
  Text += "],";
  support::appendJsonString(Text, "droppedEvents");
  Text += ':';
  Json::uinteger(Dropped).write(Text);
  Text += "}\n";
  OS << Text;
}

Tracer &obs::tracer() {
  static Tracer T;
  return T;
}
