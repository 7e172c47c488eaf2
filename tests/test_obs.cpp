//===--- test_obs.cpp - Observability layer tests ------------------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the obs layer: ring-buffer wrap/drop accounting, log₂ histogram
/// bucket boundaries, metrics/trace/flight-record documents (parsed back
/// with support::Json and checked member by member), a multi-thread
/// write-join-drain (the pattern the TSan job exercises), and a contended
/// two-thread runtime scenario asserting the profiler sees real contention.
///
//===----------------------------------------------------------------------===//

#include "obs/LockProfiler.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Obs.h"
#include "obs/RequestTelemetry.h"
#include "obs/Trace.h"
#include "runtime/LockRuntime.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace lockin;
using namespace lockin::obs;
using lockin::rt::LockDescriptor;
using lockin::rt::LockRuntime;
using lockin::rt::Mode;
using lockin::rt::ThreadLockContext;

namespace {

using support::Json;

/// \p Text parsed as one JSON document; a test failure if it is not one.
Json parseDoc(const std::string &Text) {
  Json Doc;
  std::string Err;
  EXPECT_TRUE(Json::parse(Text, Doc, Err)) << Err << "\n" << Text;
  return Doc;
}

/// The trace events named \p Name.
std::vector<const Json *> eventsNamed(const Json &Trace,
                                      const std::string &Name) {
  std::vector<const Json *> Out;
  if (const Json *Events = Trace.get("traceEvents"))
    for (const Json &E : Events->items())
      if (E.getString("name") == Name)
        Out.push_back(&E);
  return Out;
}

TEST(Histogram, BucketBoundaries) {
  // bucket 0 = {0}, bucket i = [2^(i-1), 2^i) for i >= 1.
  EXPECT_EQ(Histogram::bucketOf(0), 0u);
  EXPECT_EQ(Histogram::bucketOf(1), 1u);
  EXPECT_EQ(Histogram::bucketOf(2), 2u);
  EXPECT_EQ(Histogram::bucketOf(3), 2u);
  EXPECT_EQ(Histogram::bucketOf(4), 3u);
  EXPECT_EQ(Histogram::bucketOf(~0ull), 64u);
  for (unsigned B = 0; B < Histogram::NumBuckets; ++B) {
    EXPECT_EQ(Histogram::bucketOf(Histogram::bucketLo(B)), B == 1 ? 0u : B)
        << "bucket " << B; // bucketLo(1) is 0, which bucket 0 admits
    EXPECT_EQ(Histogram::bucketOf(Histogram::bucketHi(B)), B);
    if (B >= 1) {
      EXPECT_EQ(Histogram::bucketHi(B - 1) + 1,
                B == 1 ? 1ull : Histogram::bucketLo(B));
    }
  }

  Histogram H;
  H.record(0);
  H.record(1);
  H.record(7);    // bucket 3
  H.record(8);    // bucket 4
  EXPECT_EQ(H.count(), 4u);
  EXPECT_EQ(H.sum(), 16u);
  EXPECT_EQ(H.bucketCount(0), 1u);
  EXPECT_EQ(H.bucketCount(1), 1u);
  EXPECT_EQ(H.bucketCount(3), 1u);
  EXPECT_EQ(H.bucketCount(4), 1u);
  EXPECT_EQ(H.bucketCount(2), 0u);

  H.recordWeighted(1000, 32); // bucket 10
  EXPECT_EQ(H.count(), 36u);
  EXPECT_EQ(H.sum(), 16u + 32u * 1000u);
  EXPECT_EQ(H.bucketCount(10), 32u);

  H.reset();
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.sum(), 0u);
}

TEST(Histogram, QuantileIsWithinBucket) {
  Histogram H;
  for (int I = 0; I < 99; ++I)
    H.record(100); // bucket 7: [64, 128)
  H.record(100000);
  uint64_t P50 = H.quantile(0.50);
  EXPECT_GE(P50, 64u);
  EXPECT_LT(P50, 128u);
  // Exact buckets stay exact.
  Histogram Z;
  Z.record(0);
  Z.record(1);
  EXPECT_EQ(Z.quantile(0.0), 0u);
  EXPECT_EQ(Z.quantile(1.0), 1u);
}

TEST(MetricsRegistry, HandlesAndJson) {
  MetricsRegistry R;
  Counter &C = R.counter("runtime.test_counter");
  C.add(41);
  C.inc();
  EXPECT_EQ(C.value(), 42u);
  // Same name returns the same cell.
  EXPECT_EQ(&R.counter("runtime.test_counter"), &C);

  Histogram &H = R.histogram("runtime.test_hist");
  H.record(3);
  H.record(300);

  Json Doc = parseDoc(R.toJson().str());
  const Json *Counters = Doc.get("counters");
  ASSERT_NE(Counters, nullptr);
  EXPECT_EQ(Counters->getInt("runtime.test_counter", -1), 42);
  const Json *Hists = Doc.get("histograms");
  ASSERT_NE(Hists, nullptr);
  const Json *Hist = Hists->get("runtime.test_hist");
  ASSERT_NE(Hist, nullptr);
  EXPECT_EQ(Hist->getInt("count"), 2);
  EXPECT_EQ(Hist->getInt("sum"), 303);
  for (const char *Q : {"p50", "p95", "p99"})
    EXPECT_TRUE(Hist->get(Q) && Hist->get(Q)->isNumber()) << Q;
  // Sparse [le, count] pairs: 3 lands in [2, 3], 300 in [256, 511].
  ASSERT_NE(Hist->get("buckets"), nullptr);
  EXPECT_EQ(Hist->get("buckets")->str(), "[[3,1],[511,1]]");

  R.reset();
  EXPECT_EQ(C.value(), 0u);
  EXPECT_EQ(H.count(), 0u);
}

TEST(MetricsRegistry, JsonEscapesNames) {
  MetricsRegistry R;
  R.counter("a\"b\\c").add(3);
  R.histogram("h\n\"").record(5);
  Json Doc = parseDoc(R.toJson().str());
  ASSERT_NE(Doc.get("counters"), nullptr);
  EXPECT_EQ(Doc.get("counters")->getInt("a\"b\\c", -1), 3);
  ASSERT_NE(Doc.get("histograms"), nullptr);
  const Json *Hist = Doc.get("histograms")->get("h\n\"");
  ASSERT_NE(Hist, nullptr);
  EXPECT_EQ(Hist->getInt("count"), 1);
}

TEST(TraceRing, WrapAndDropAccounting) {
  ThreadTraceBuffer B(8);
  ASSERT_EQ(B.capacity(), 8u);
  for (uint64_t I = 0; I < 11; ++I)
    B.emit(TraceEvent{I, 0, I, 0, EventKind::SectionSpan, 0});
  EXPECT_EQ(B.written(), 11u);
  EXPECT_EQ(B.dropped(), 3u); // the three oldest were overwritten
  EXPECT_EQ(B.size(), 8u);
  EXPECT_EQ(B.at(0).A, 3u); // oldest retained
  EXPECT_EQ(B.at(7).A, 10u);

  // Capacity rounds up to a power of two, minimum 2.
  EXPECT_EQ(ThreadTraceBuffer(5).capacity(), 8u);
  EXPECT_EQ(ThreadTraceBuffer(1).capacity(), 2u);

  ThreadTraceBuffer Small(4);
  Small.emit(TraceEvent{});
  EXPECT_EQ(Small.written(), 1u);
  EXPECT_EQ(Small.dropped(), 0u);
  EXPECT_EQ(Small.size(), 1u);
}

TEST(Tracer, DisabledEmitsNothing) {
  Tracer T;
  T.span(EventKind::SectionSpan, 1, 2, 3);
  EXPECT_EQ(T.totalWritten(), 0u);
}

TEST(Tracer, ChromeJsonParsesBack) {
  Tracer T;
  T.setCapacity(64);
  T.setEnabled(true);
  uint32_t PassName = T.internName("points-to \"quoted\"");
  T.span(EventKind::SectionSpan, 1000, 500, 7);
  T.span(EventKind::AcquireSpan, 1100, 50, 3);
  T.span(EventKind::NodeWaitSpan, 1200, 90, 2, 0,
         static_cast<uint8_t>(Mode::X));
  T.span(EventKind::PassSpan, 2000, 300, PassName);
  T.span(EventKind::StepsCount, 2500, 0, 12345);
  T.span(EventKind::SimOpSpan, 10, 5, 0, 1);
  T.span(EventKind::SimWaitSpan, 15, 3, 0, 2);
  T.span(EventKind::SimAbort, 20, 0, 0, 2);

  std::ostringstream OS;
  T.writeChromeJson(OS);
  Json Doc = parseDoc(OS.str());
  // Each event once, with its pid/tid row and args (name and times aside).
  auto Row = [&](const std::string &Name) {
    std::vector<const Json *> Found = eventsNamed(Doc, Name);
    EXPECT_EQ(Found.size(), 1u) << Name;
    Json Event = Json::object();
    if (!Found.empty())
      for (const auto &[Key, Value] : Found[0]->members())
        if (Key != "name" && Key != "ts" && Key != "dur")
          Event.set(Key, Value);
    return Event.str();
  };
  EXPECT_EQ(Row("section"),
            R"({"ph":"X","pid":1,"tid":1,"args":{"section":7}})");
  EXPECT_EQ(Row("acquireAll"),
            R"({"ph":"X","pid":1,"tid":1,"args":{"nodes":3}})");
  EXPECT_EQ(Row("lock-wait"),
            R"({"ph":"X","pid":1,"tid":1,"args":{"node":2,"mode":"X"}})");
  // The interned pass name round-trips through the escaper.
  EXPECT_EQ(Row("points-to \"quoted\""),
            R"({"ph":"X","pid":1,"tid":1,"args":{}})");
  EXPECT_EQ(Row("interp-steps"),
            R"({"ph":"C","pid":1,"tid":1,"args":{"steps":12345}})");
  // Sim events land on the simulated-time process row.
  EXPECT_EQ(Row("sim-op"), R"({"ph":"X","pid":2,"tid":1,"args":{"op":0}})");
  EXPECT_EQ(Row("sim-abort"),
            R"({"ph":"i","s":"t","pid":2,"tid":2,"args":{}})");
  ASSERT_FALSE(eventsNamed(Doc, "section").empty());
  const Json *Section = eventsNamed(Doc, "section").front();
  EXPECT_DOUBLE_EQ(Section->get("ts")->asDouble(), 1.0); // microseconds
  EXPECT_DOUBLE_EQ(Section->get("dur")->asDouble(), 0.5);
  EXPECT_EQ(eventsNamed(Doc, "process_name").size(), 3u);
  ASSERT_NE(Doc.get("droppedEvents"), nullptr);
  EXPECT_EQ(Doc.getInt("droppedEvents", -1), 0);

  T.clear();
  EXPECT_EQ(T.totalWritten(), 0u);
  // The thread-local buffer cache must miss after clear (fresh epoch).
  T.span(EventKind::SectionSpan, 1, 1, 1);
  EXPECT_EQ(T.totalWritten(), 1u);
}

TEST(Tracer, MultiThreadWriteJoinDrain) {
  constexpr unsigned NumThreads = 4;
  constexpr size_t Cap = 256;
  constexpr uint64_t PerThread = 5000;
  Tracer T;
  T.setCapacity(Cap);
  T.setEnabled(true);

  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < NumThreads; ++I)
    Threads.emplace_back([&T] {
      for (uint64_t E = 0; E < PerThread; ++E)
        T.span(EventKind::SectionSpan, E, 1, E);
    });
  for (std::thread &Th : Threads)
    Th.join();

  EXPECT_EQ(T.totalWritten(), NumThreads * PerThread);
  EXPECT_EQ(T.totalDropped(), NumThreads * (PerThread - Cap));

  std::ostringstream OS;
  T.writeChromeJson(OS);
  Json Doc = parseDoc(OS.str());
  EXPECT_EQ(Doc.getInt("droppedEvents", -1),
            static_cast<int64_t>(NumThreads * (PerThread - Cap)));
  EXPECT_EQ(eventsNamed(Doc, "section").size(), NumThreads * Cap);
}

TEST(Histogram, PercentileEstimates) {
  // 90 fast (bucket 7: [64,128)), 9 slow (bucket 10: [512,1024)), one
  // outlier (bucket 17: [65536,131072)). The estimator returns a value
  // inside the right bucket; exactness is not promised, containment is.
  Histogram H;
  for (int I = 0; I < 90; ++I)
    H.record(100);
  for (int I = 0; I < 9; ++I)
    H.record(1000);
  H.record(100000);
  ASSERT_EQ(H.count(), 100u);

  uint64_t P50 = H.quantile(0.50);
  EXPECT_GE(P50, 64u);
  EXPECT_LT(P50, 128u);
  uint64_t P95 = H.quantile(0.95);
  EXPECT_GE(P95, 512u);
  EXPECT_LT(P95, 1024u);
  // Rank 99 of 100 still lands in the slow bucket (cumulative 99);
  // only the max reaches the outlier.
  uint64_t P99 = H.quantile(0.99);
  EXPECT_GE(P99, 512u);
  EXPECT_LT(P99, 1024u);
  uint64_t Max = H.quantile(1.0);
  EXPECT_GE(Max, 65536u);
  EXPECT_LT(Max, 131072u);
  // Quantiles are monotone in P.
  EXPECT_LE(H.quantile(0.0), P50);
  EXPECT_LE(P50, P95);
  EXPECT_LE(P95, P99);
  EXPECT_LE(P99, Max);
}

TEST(MetricsRegistry, PrometheusGoldenText) {
  MetricsRegistry R;
  R.counter("service.requests.analyze").add(3);
  Histogram &H = R.histogram("service.queue_ns");
  H.record(0);    // bucket 0, hi 0
  H.record(1);    // bucket 1, hi 1
  H.record(1000); // bucket 10, hi 1023

  std::ostringstream OS;
  R.writePrometheus(OS);
  EXPECT_EQ(OS.str(),
            "# TYPE lockin_service_requests_analyze_total counter\n"
            "lockin_service_requests_analyze_total 3\n"
            "# TYPE lockin_service_queue_ns histogram\n"
            "lockin_service_queue_ns_bucket{le=\"0\"} 1\n"
            "lockin_service_queue_ns_bucket{le=\"1\"} 2\n"
            "lockin_service_queue_ns_bucket{le=\"1023\"} 3\n"
            "lockin_service_queue_ns_bucket{le=\"+Inf\"} 3\n"
            "lockin_service_queue_ns_sum 1001\n"
            "lockin_service_queue_ns_count 3\n");
}

TEST(MetricsRegistry, PrometheusBucketsParseBackMonotone) {
  MetricsRegistry R;
  Histogram &H = R.histogram("service.total_ns");
  for (uint64_t V : {0ull, 3ull, 3ull, 90ull, 4096ull, 70000ull, 70001ull})
    H.record(V);
  std::ostringstream OS;
  R.writePrometheus(OS);

  // Parse every _bucket line back; cumulative counts must be
  // non-decreasing in le order and the +Inf bucket must equal _count.
  std::istringstream In(OS.str());
  std::string Line;
  uint64_t PrevCum = 0, InfCum = 0, LastLe = 0;
  unsigned Buckets = 0;
  bool PrevLeSet = false;
  while (std::getline(In, Line)) {
    size_t Tag = Line.find("_bucket{le=\"");
    if (Tag == std::string::npos)
      continue;
    size_t ValStart = Tag + std::strlen("_bucket{le=\"");
    size_t ValEnd = Line.find('"', ValStart);
    ASSERT_NE(ValEnd, std::string::npos) << Line;
    std::string Le = Line.substr(ValStart, ValEnd - ValStart);
    uint64_t Cum = std::stoull(Line.substr(Line.rfind(' ') + 1));
    EXPECT_GE(Cum, PrevCum) << Line;
    PrevCum = Cum;
    ++Buckets;
    if (Le == "+Inf") {
      InfCum = Cum;
    } else {
      uint64_t LeV = std::stoull(Le);
      if (PrevLeSet) {
        EXPECT_GT(LeV, LastLe) << Line;
      }
      LastLe = LeV;
      PrevLeSet = true;
    }
  }
  EXPECT_EQ(Buckets, 6u); // five distinct value buckets + +Inf
  EXPECT_EQ(InfCum, H.count());
  EXPECT_NE(OS.str().find("lockin_service_total_ns_count 7"),
            std::string::npos);
}

TEST(Tracer, DroppedEventsCounter) {
  MetricsRegistry Reg;
  Tracer T;
  T.setMetrics(&Reg);
  T.setCapacity(8);
  T.setEnabled(true);
  for (uint64_t I = 0; I < 11; ++I)
    T.span(EventKind::SectionSpan, I, 1, I);
  // 11 events into an 8-slot ring: the three oldest were overwritten and
  // each overwrite bumped the counter.
  EXPECT_EQ(T.totalDropped(), 3u);
  EXPECT_EQ(Reg.counter("trace.dropped_events").value(), 3u);

  // No drops, no counts.
  MetricsRegistry Reg2;
  Tracer T2;
  T2.setMetrics(&Reg2);
  T2.setCapacity(8);
  T2.setEnabled(true);
  T2.span(EventKind::SectionSpan, 1, 1, 1);
  EXPECT_EQ(Reg2.counter("trace.dropped_events").value(), 0u);
}

/// Reads everything written to a tmpfile sink so far.
std::string readSink(std::FILE *F) {
  std::fflush(F);
  long Len = std::ftell(F);
  std::string Out(static_cast<size_t>(Len), '\0');
  std::rewind(F);
  size_t Read = std::fread(Out.data(), 1, Out.size(), F);
  Out.resize(Read);
  std::fseek(F, 0, SEEK_END);
  return Out;
}

TEST(Log, StructuredLinesAndLevels) {
  std::FILE *Sink = std::tmpfile();
  ASSERT_NE(Sink, nullptr);
  Logger L;
  L.setSink(Sink);

  L.event(LogLevel::Info, "test.event")
      .str("peer", "unix:\"7\"") // escaping
      .num("req", 42)
      .snum("delta", -3)
      .flag("hit", true);
  EXPECT_EQ(L.lines(), 1u);

  std::string Text = readSink(Sink);
  ASSERT_FALSE(Text.empty());
  ASSERT_EQ(Text.back(), '\n');
  Json Doc = parseDoc(Text.substr(0, Text.size() - 1));
  EXPECT_EQ(Doc.getString("level"), "info");
  EXPECT_EQ(Doc.getString("event"), "test.event");
  EXPECT_EQ(Doc.getString("peer"), "unix:\"7\"");
  EXPECT_EQ(Doc.getInt("req"), 42);
  EXPECT_EQ(Doc.getInt("delta"), -3);
  EXPECT_TRUE(Doc.getBool("hit"));
  EXPECT_TRUE(Doc.get("ts_us") && Doc.get("ts_us")->isNumber());
  // The line format itself is pinned too: operators and CI grep the log
  // with spacing-exact patterns.
  EXPECT_NE(Text.find("\"level\": \"info\""), std::string::npos);
  EXPECT_NE(Text.find("\"event\": \"test.event\""), std::string::npos);
  EXPECT_NE(Text.find("\"peer\": \"unix:\\\"7\\\"\""), std::string::npos);
  EXPECT_NE(Text.find("\"req\": 42"), std::string::npos);
  EXPECT_NE(Text.find("\"delta\": -3"), std::string::npos);
  EXPECT_NE(Text.find("\"hit\": true"), std::string::npos);
  EXPECT_NE(Text.find("\"ts_us\": "), std::string::npos);

  // Below-threshold events are suppressed without formatting anything.
  L.setLevel(LogLevel::Warn);
  L.event(LogLevel::Info, "test.suppressed").num("x", 1);
  EXPECT_EQ(L.lines(), 1u);
  EXPECT_FALSE(L.enabled(LogLevel::Debug));
  EXPECT_TRUE(L.enabled(LogLevel::Error));
  // Off suppresses everything, including Error-level events.
  L.setLevel(LogLevel::Off);
  L.event(LogLevel::Error, "test.off");
  EXPECT_EQ(L.lines(), 1u);
  EXPECT_FALSE(L.enabled(LogLevel::Error));

  L.setSink(nullptr);
  std::fclose(Sink);
}

TEST(Log, EscapedValuesRoundTripThroughJsonParser) {
  std::FILE *Sink = std::tmpfile();
  ASSERT_NE(Sink, nullptr);
  Logger L;
  L.setSink(Sink);

  // Quotes, backslashes, every short-form escape and two control
  // characters that need \u00XX, in both a key and a value.
  const std::string Value = std::string("say \"hi\" C:\\tmp\n\r\t\b\f") +
                            '\x01' + '\x1f' + " end";
  const std::string Key = "k\"\\\n";
  L.event(LogLevel::Info, "test.escape\n").str(Key, Value);

  std::string Text = readSink(Sink);
  ASSERT_FALSE(Text.empty());
  ASSERT_EQ(Text.back(), '\n');
  std::string Line = Text.substr(0, Text.size() - 1);
  EXPECT_EQ(Line.find('\n'), std::string::npos) << "raw newline in a line";
  Json Doc;
  std::string Err;
  ASSERT_TRUE(Json::parse(Line, Doc, Err)) << Err << "\n" << Line;
  EXPECT_EQ(Doc.getString("event", ""), "test.escape\n");
  EXPECT_EQ(Doc.getString(Key, ""), Value);

  L.setSink(nullptr);
  std::fclose(Sink);
}

TEST(Log, ParseLevelNames) {
  LogLevel L = LogLevel::Info;
  EXPECT_TRUE(parseLogLevel("debug", L));
  EXPECT_EQ(L, LogLevel::Debug);
  EXPECT_TRUE(parseLogLevel("error", L));
  EXPECT_EQ(L, LogLevel::Error);
  EXPECT_TRUE(parseLogLevel("off", L));
  EXPECT_EQ(L, LogLevel::Off);
  EXPECT_FALSE(parseLogLevel("verbose", L));
  EXPECT_EQ(L, LogLevel::Off) << "failed parse must not clobber";
  EXPECT_STREQ(logLevelName(LogLevel::Warn), "warn");
}

TEST(RequestTelemetry, PhaseSpansAndScopes) {
  RequestContext Ctx(7, "unix:9", "analyze");
  EXPECT_EQ(Ctx.id(), 7u);
  EXPECT_GT(Ctx.startNs(), 0u);
  EXPECT_EQ(Ctx.Outcome, "ok");

  { PhaseScope S(&Ctx, ReqPhase::Parse); }
  { PhaseScope S(nullptr, ReqPhase::Analyze); } // null ctx: no-op
  EXPECT_GT(Ctx.span(ReqPhase::Parse).StartNs, 0u);
  EXPECT_EQ(Ctx.span(ReqPhase::Analyze).StartNs, 0u)
      << "never-ran phase stays zeroed";
  EXPECT_EQ(Ctx.span(ReqPhase::Render).StartNs, 0u);

  // Re-entering a phase accumulates duration.
  Ctx.begin(ReqPhase::Analyze);
  Ctx.end(ReqPhase::Analyze);
  uint64_t First = Ctx.phaseNs(ReqPhase::Analyze);
  Ctx.begin(ReqPhase::Analyze);
  Ctx.end(ReqPhase::Analyze);
  EXPECT_GE(Ctx.phaseNs(ReqPhase::Analyze), First);

  // setSpan overwrites (the overload-rejection path).
  Ctx.setSpan(ReqPhase::Queue, 1000, 250);
  EXPECT_EQ(Ctx.span(ReqPhase::Queue).StartNs, 1000u);
  EXPECT_EQ(Ctx.phaseNs(ReqPhase::Queue), 250u);

  EXPECT_STREQ(reqPhaseName(ReqPhase::Queue), "queue");
  EXPECT_STREQ(reqPhaseName(ReqPhase::Render), "render");
}

FlightRecord makeRecord(uint64_t Id) {
  FlightRecord R;
  R.Id = Id;
  R.StartNs = Id * 100;
  R.TotalNs = Id * 10;
  R.Op = "analyze";
  R.Unit = "u.atom";
  R.Peer = "tcp:5";
  R.Outcome = Id % 2 ? "ok" : "timeout";
  R.PhaseNs[0] = Id;
  return R;
}

TEST(FlightRecorderTest, RingWrapOldestFirst) {
  FlightRecorder FR(4);
  EXPECT_EQ(FR.capacity(), 4u);
  EXPECT_EQ(FR.snapshot().size(), 0u);
  for (uint64_t I = 1; I <= 6; ++I)
    FR.record(makeRecord(I));
  EXPECT_EQ(FR.recorded(), 6u);
  std::vector<FlightRecord> Snap = FR.snapshot();
  ASSERT_EQ(Snap.size(), 4u);
  for (size_t I = 0; I < 4; ++I)
    EXPECT_EQ(Snap[I].Id, 3 + I) << "oldest-first after wrap";

  Json Doc = parseDoc(FR.toJson().str());
  EXPECT_EQ(Doc.getInt("capacity"), 4);
  EXPECT_EQ(Doc.getInt("recorded"), 6);
  const Json *Records = Doc.get("records");
  ASSERT_TRUE(Records && Records->isArray());
  ASSERT_EQ(Records->items().size(), 4u);
  bool SawTimeout = false;
  for (size_t I = 0; I < 4; ++I) {
    const Json &Rec = Records->items()[I];
    EXPECT_EQ(Rec.getInt("id"), static_cast<int64_t>(3 + I))
        << "oldest-first after wrap";
    SawTimeout |= Rec.getString("outcome") == "timeout";
    const Json *Phases = Rec.get("phases_ns");
    ASSERT_TRUE(Phases && Phases->isObject());
    EXPECT_EQ(Phases->getInt("queue"), Rec.getInt("id"));
  }
  EXPECT_TRUE(SawTimeout);

  FR.clear();
  EXPECT_EQ(FR.recorded(), 0u);
  EXPECT_EQ(FR.snapshot().size(), 0u);
}

TEST(FlightRecorderTest, DumpRateLimit) {
  std::FILE *Sink = std::tmpfile();
  ASSERT_NE(Sink, nullptr);
  Logger L;
  L.setSink(Sink);

  FlightRecorder FR(8);
  EXPECT_FALSE(FR.dump(L, "empty")) << "empty ring never dumps";
  EXPECT_EQ(L.lines(), 0u);

  FR.record(makeRecord(1));
  FR.record(makeRecord(2));
  EXPECT_TRUE(FR.dump(L, "overload"));
  EXPECT_EQ(L.lines(), 3u); // one header + two records
  // A second dump inside the rate-limit window is suppressed...
  EXPECT_FALSE(FR.dump(L, "overload"));
  EXPECT_EQ(L.lines(), 3u);
  // ...but an explicit MinGapNs of 0 (the drain path) always dumps.
  EXPECT_TRUE(FR.dump(L, "drain", /*MinGapNs=*/0));
  EXPECT_EQ(L.lines(), 6u);

  std::string Text = readSink(Sink);
  EXPECT_NE(Text.find("\"event\": \"flightrecord.dump\""), std::string::npos);
  EXPECT_NE(Text.find("\"reason\": \"overload\""), std::string::npos);
  EXPECT_NE(Text.find("\"event\": \"flightrecord.record\""),
            std::string::npos);
  EXPECT_NE(Text.find("\"queue_ns\": 1"), std::string::npos);

  L.setSink(nullptr);
  std::fclose(Sink);
}

TEST(LockProfilerTest, ContendedTwoThreads) {
  if constexpr (!kEnabled)
    GTEST_SKIP() << "built with LOCKIN_OBS=OFF";

  MetricsRegistry Reg;
  LockProfiler Prof;
  Prof.setEnabled(true);
  LockRuntime RT(1, &Reg, &Prof);

  // Deterministic contention (looped hammering doesn't reliably overlap
  // on a single-core machine): the holder keeps the fine write lock for
  // a few milliseconds while the waiter attempts the same X lock, so the
  // waiter's spin budget runs out and it parks.
  const LockDescriptor D = LockDescriptor::fine(0, 0x1000, true);
  std::atomic<bool> Held{false};
  std::thread Holder([&] {
    ThreadLockContext Ctx(RT);
    Ctx.setSectionTag(1);
    Ctx.toAcquire(D);
    Ctx.acquireAll();
    Held.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    Ctx.releaseAll();
  });
  std::thread Waiter([&] {
    ThreadLockContext Ctx(RT);
    Ctx.setSectionTag(1);
    while (!Held.load()) {
    }
    Ctx.toAcquire(D);
    Ctx.acquireAll(); // blocks until the holder releases
    Ctx.releaseAll();
  });
  Holder.join();
  Waiter.join();

  uint32_t LeafId = RT.leafNode(0, 0x1000).ObsId;
  ASSERT_NE(LeafId, 0u);
  NodeSlot &Leaf = Prof.nodeSlot(LeafId);
  EXPECT_GT(Leaf.Contentions.value(), 0u);
  EXPECT_GT(Leaf.WaitNs.count(), 0u);
  EXPECT_EQ(Leaf.WaitNs.count(), Leaf.Contentions.value());
  // The wait was a real multi-millisecond park.
  EXPECT_GT(Leaf.WaitNs.sum(), 1000000u);
  // Sampled acquire counts: each context's first section is sampled.
  EXPECT_EQ(Leaf.Acquires.value(), 2u * kSampleEvery);
  EXPECT_EQ(Leaf.ModeCounts[static_cast<unsigned>(Mode::X)].value(),
            2u * kSampleEvery);

  SectionSlot &Sec = Prof.sectionSlot(1);
  EXPECT_EQ(Sec.Entries.value(), 2u * kSampleEvery);
  // Fine descriptor: root IS/IX + region IX + leaf X = 3 nodes per entry.
  EXPECT_EQ(Sec.Nodes.value(), 3u * 2u * kSampleEvery);

  std::string Table = Prof.renderTable();
  EXPECT_NE(Table.find("; lock profile"), std::string::npos);
  EXPECT_NE(Table.find("leaf"), std::string::npos);
}

TEST(LockProfilerTest, SectionRollupAndNestedSkips) {
  if constexpr (!kEnabled)
    GTEST_SKIP() << "built with LOCKIN_OBS=OFF";

  MetricsRegistry Reg;
  LockProfiler Prof;
  Prof.setEnabled(true);
  LockRuntime RT(2, &Reg, &Prof);
  ThreadLockContext Ctx(RT);

  // One outermost section (the first section a context runs is always
  // sampled, recorded with the sampling weight) with a nested acquireAll.
  Ctx.setSectionTag(5);
  Ctx.toAcquire(LockDescriptor::coarse(1, true));
  Ctx.acquireAll();
  Ctx.toAcquire(LockDescriptor::fine(1, 0x2000, false));
  Ctx.acquireAll(); // nested: covered, takes nothing
  Ctx.releaseAll();
  Ctx.releaseAll();

  SectionSlot &Sec = Prof.sectionSlot(5);
  EXPECT_EQ(Sec.Entries.value(), kSampleEvery);
  EXPECT_EQ(Sec.NestedSkips.value(), kSampleEvery);
  // Coarse write: root IX + region X.
  EXPECT_EQ(Sec.Nodes.value(), 2u * kSampleEvery);
  EXPECT_EQ(Sec.ModeCounts[static_cast<unsigned>(Mode::IX)].value(),
            kSampleEvery);
  EXPECT_EQ(Sec.ModeCounts[static_cast<unsigned>(Mode::X)].value(),
            kSampleEvery);
}

TEST(LockProfilerTest, DisabledRecordsNothing) {
  MetricsRegistry Reg;
  LockProfiler Prof; // disabled
  LockRuntime RT(1, &Reg, &Prof);
  {
    ThreadLockContext Ctx(RT);
    Ctx.toAcquire(LockDescriptor::fine(0, 0x40, true));
    Ctx.acquireAll();
    Ctx.releaseAll();
  }
  if constexpr (kEnabled) {
    uint32_t LeafId = RT.leafNode(0, 0x40).ObsId;
    ASSERT_NE(LeafId, 0u);
    EXPECT_EQ(Prof.nodeSlot(LeafId).Acquires.value(), 0u);
    EXPECT_EQ(Prof.nodeSlot(LeafId).Contentions.value(), 0u);
    // The plain counters still flow into the injected registry.
    EXPECT_EQ(RT.stats().AcquireAllCalls, 1u);
  }
}

} // namespace
