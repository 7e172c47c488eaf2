//===--- Daemon.cpp - The daemon workload: an IDE-style edit session ------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traffic the warm/edit latency work targets: an in-process
/// service::Server on a unix socket (default options except 2 workers and
/// 1 event loop) and two closed-loop clients, each owning one unit and
/// one tenant id. IDE callers wait for each reply, so the loop is closed.
/// Each client sends a seeded sequence of identical resubmits and
/// one-function edits; every edit writes a never-used salt into a seeded
/// choice of function, so it is a real cache miss and never a revisit of
/// an earlier version.
///
/// Of the end-to-end metrics every workload reports, throughput_per_s is
/// completed requests per second, light_op_us the median round trip of an
/// identical resubmit (served from the cache) and heavy_op_us that of an
/// edit (inference on the dirty cone).
///
/// The traced run times the clients' Client::call in an untraced,
/// traced, untraced window sequence, then replays the start of the
/// traced window's requests into an in-process IncrementalAnalyzer,
/// timing analyze(), the front-half calls and the fingerprinting on each
/// request's source.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Programs.h"

#include "analysis/CallGraph.h"
#include "driver/Compiler.h"
#include "ir/Lowering.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "pointsto/Steensgaard.h"
#include "service/Client.h"
#include "service/Fingerprint.h"
#include "service/Incremental.h"
#include "service/Server.h"
#include "support/Rng.h"

#include <atomic>
#include <memory>
#include <thread>
#include <unistd.h>

using namespace lockbench;
using namespace lockin;
using namespace lockin::service;

namespace {

constexpr unsigned NumClients = 2;
/// One request in two is an edit. No recorded IDE traffic fixes the
/// ratio, so it is set to split the closed loop's requests evenly between
/// resubmits and edits, which gives both medians the same expected number
/// of samples.
constexpr unsigned EditPercent = 50;
/// Samples a p95 needs so that at least ten lie beyond it.
constexpr size_t TailSamples = 200;
/// Every Nth edit's response is kept and compared with compile() after
/// the timed windows.
constexpr unsigned CheckEvery = 8;
/// Traced requests of each client replayed in-process: a prefix of its
/// traced window (the unit's versions must follow in order), enough for
/// the medians, and the replay of a whole window would take longer than
/// the window itself.
constexpr size_t MaxReplayPerClient = 500;

/// Window of the run a request was issued in.
enum Window : int { Warmup, Measure, Traced, MeasureAfter, Stop };

struct Request {
  uint64_t Id = 0;
  bool Edit = false;
  Window In = Warmup;
  uint64_t StartNs = 0;
  double RoundtripMs = 0;
  Clock::time_point Done;
  unsigned Hits = 0, Misses = 0, Cone = 0, Reanalyzed = 0;
  /// Sampled: 0 when this response's size was not measured.
  size_t ResponseBytes = 0;
};

/// A sampled edit whose response is checked against compile().
struct EditSample {
  std::string Source;
  std::string Report;
};

/// One closed-loop client: its unit, tenant, salts and request stream.
class UnitClient {
public:
  UnitClient(unsigned Index, uint64_t Seed, const UnitShape &Shape)
      : Index(Index), Shape(Shape), Rand(Seed * 0x9e3779b97f4a7c15ULL + Index),
        Unit("unit" + std::to_string(Index) + ".atom"),
        Tenant("tenant" + std::to_string(Index)),
        Salts(Shape.Workers, Index + 1), NextSalt(Index + 1 + NumClients) {
    Source = serviceUnit(Shape, Salts);
    First = Source;
  }

  /// Draws the next request: either the current source again, or an edit
  /// of one function with a salt no earlier request of any client used.
  /// \p RepeatEarlier makes the edit restore the unit's first version (the
  /// injected fault the self-test uses).
  bool next(bool RepeatEarlier) {
    if (Rand.below(100) >= EditPercent)
      return false;
    if (RepeatEarlier) {
      Source = First;
      return true;
    }
    Salts[Rand.below(Shape.Workers)] = NextSalt;
    NextSalt += NumClients;
    Source = serviceUnit(Shape, Salts);
    return true;
  }

  Json request(const std::string &Text) const {
    Json Req = Json::object();
    Req.set("op", Json::string("analyze"));
    Req.set("unit", Json::string(Unit));
    Req.set("tenant", Json::string(Tenant));
    Req.set("source", Json::string(Text));
    return Req;
  }

  const unsigned Index;
  const UnitShape Shape;
  Rng Rand;
  const std::string Unit, Tenant;
  std::vector<uint64_t> Salts;
  uint64_t NextSalt;
  std::string Source; ///< the unit's current version
  std::string First;  ///< the unit's first version

  // Filled by the client thread.
  std::vector<Request> Requests;
  std::vector<EditSample> Samples;
  /// Sources of the traced window's requests, in order, and the version
  /// the unit had before the first of them (for the replay).
  std::vector<std::string> TracedSources;
  std::string TracedBase;
  uint64_t Attempted = 0;
  Result Failures;
  /// Set once the warm-up requests are done (or the client gave up).
  std::atomic<bool> Ready{false};
};

struct Daemon {
  std::unique_ptr<Server> S;
  std::thread Runner;

  bool start(const std::string &Socket, std::string &Err) {
    ServerOptions Opts;
    Opts.UnixSocketPath = Socket;
    Opts.Workers = 2;
    Opts.EventLoops = 1;
    S = std::make_unique<Server>(Opts);
    if (!S->start(Err)) {
      S.reset();
      return false;
    }
    Runner = std::thread([this] { S->run(); });
    return true;
  }
  void stop() {
    if (!S)
      return;
    S->requestShutdown();
    Runner.join();
    S.reset();
  }
  ~Daemon() { stop(); }
};

/// Sends one request and applies the per-request checks: the response is
/// ok, an edit misses the cache, a resubmit misses nothing.
bool sendOne(Client &Conn, UnitClient &U, bool Edit, Request &Out,
             Json *Response = nullptr) {
  Json Req = U.request(U.Source);
  Json Resp;
  std::string Err;
  ++U.Attempted;
  Out.StartNs = nowNs();
  Clock::time_point T0 = Clock::now();
  bool CallOk = Conn.call(Req, Resp, Err);
  Out.Done = Clock::now();
  Out.RoundtripMs = msBetween(T0, Out.Done);
  Out.Edit = Edit;
  if (!CallOk || !Resp.getBool("ok", false)) {
    U.Failures.fail(U.Unit + ": request failed: " +
                    (CallOk ? Resp.getString("error") : Err));
    return false;
  }
  Out.Hits = static_cast<unsigned>(Resp.getUint("cacheHits"));
  Out.Misses = static_cast<unsigned>(Resp.getUint("cacheMisses"));
  if (const Json *Cone = Resp.get("dirtyConeSections"))
    Out.Cone = static_cast<unsigned>(Cone->items().size());
  if (const Json *Re = Resp.get("reanalyzed"))
    Out.Reanalyzed = static_cast<unsigned>(Re->items().size());
  if (Edit && Out.Misses == 0) {
    U.Failures.fail(U.Unit + ": an edit was served entirely from the cache");
    return false;
  }
  if (!Edit && Out.Misses != 0) {
    U.Failures.fail(U.Unit + ": an identical resubmit missed the cache");
    return false;
  }
  if (Response)
    *Response = std::move(Resp);
  return true;
}

/// Closed loop of one client: \p WarmupRequests discarded requests, then
/// requests tagged with the window they were issued in, until Stop.
void clientLoop(const std::string &Socket, UnitClient &U,
                const std::atomic<int> &Phase, unsigned WarmupRequests,
                bool Inject, std::vector<Span> &Spans) {
  Client Conn;
  std::string Err;
  if (!Conn.connectUnix(Socket, Err)) {
    U.Failures.fail(U.Unit + ": " + Err);
    U.Ready.store(true);
    return;
  }
  unsigned Edits = 0;
  for (uint64_t Seq = 0;; ++Seq) {
    if (Seq == WarmupRequests)
      U.Ready.store(true);
    while (Seq >= WarmupRequests && Phase.load() == Warmup)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    Window In = static_cast<Window>(Phase.load());
    if (In == Stop)
      return;
    if (In == Traced && U.TracedSources.empty())
      U.TracedBase = U.Source;
    bool Edit = U.next(Inject && Edits == 2);
    if (In == Traced)
      U.TracedSources.push_back(U.Source);
    Request Q;
    Q.Id = (static_cast<uint64_t>(U.Index) << 32) | Seq;
    Q.In = In;
    bool Keep = Edit && Edits % CheckEvery == 0;
    Edits += Edit ? 1 : 0;
    // Response sizes are sampled: re-serializing every response inside
    // the traced window would itself be most of the tracing overhead.
    bool Measure = In == Traced && Seq % CheckEvery == 0;
    Json Resp;
    bool Ok = sendOne(Conn, U, Edit, Q, Keep || Measure ? &Resp : nullptr);
    if (In == Traced)
      Spans.push_back({"service.roundtrip", Q.Id, Q.StartNs,
                       static_cast<uint64_t>(Q.RoundtripMs * 1e6), U.Index});
    if (Ok && Measure)
      Q.ResponseBytes = Resp.str().size();
    if (Ok && Keep)
      U.Samples.push_back({U.Source, Resp.getString("report")});
    U.Requests.push_back(Q);
  }
}

} // namespace

void lockbench::runDaemon(const Config &C, Result &R, SpanLog &Log) {
  // A small unit: its request, response and analysis state stay in the
  // CPU's own caches, so the round trips do not swing with neighbours'
  // use of the shared cache and memory. Front half and fingerprinting
  // are the same share of a warm request as in larger units.
  const UnitShape Shape = C.Tiny ? UnitShape{2, 2, 2, 2}
                                 : UnitShape{4, 4, 2, 4};
  const std::string Socket =
      C.OutDir + "/daemon-" + std::to_string(::getpid()) + ".sock";
  const unsigned WarmupRequests = C.Tiny ? 2 : 12;

  std::vector<std::unique_ptr<UnitClient>> Clients;
  Daemon D;
  bool Started = true;
  auto TearDown = [&] {
    D.stop();
    Clients.clear();
  };
  // Setup: generate the units, start the daemon, and prime its cache with
  // each unit's first version.
  auto SetUp = [&] {
    for (unsigned I = 0; I < NumClients; ++I)
      Clients.push_back(std::make_unique<UnitClient>(I, C.Seed, Shape));
    std::string Err;
    if (!D.start(Socket, Err)) {
      R.fail("daemon start: " + Err);
      Started = false;
      return;
    }
    for (auto &U : Clients) {
      Client Conn;
      Request Prime;
      if (!Conn.connectUnix(Socket, Err))
        U->Failures.fail("prime connect: " + Err);
      else
        sendOne(Conn, *U, /*Edit=*/true, Prime);
    }
  };
  double SetupS = medianSetupSeconds(51, TearDown, SetUp);
  if (!Started)
    return;

  std::atomic<int> Phase{Warmup};
  std::vector<std::vector<Span>> Spans(NumClients);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < NumClients; ++I)
    Threads.emplace_back(clientLoop, Socket, std::ref(*Clients[I]),
                         std::cref(Phase), WarmupRequests,
                         C.Inject == Fault::RepeatEdit && I == 0,
                         std::ref(Spans[I]));
  for (auto &U : Clients)
    while (!U->Ready.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const double RssMb = peakRssMb();

  // Windows: the untraced run measures one window of C.Seconds; the
  // traced run splits C.Seconds into an untraced quarter, a traced half
  // and an untraced quarter, so host drift hits both sides alike.
  std::vector<std::pair<Window, double>> Plan =
      C.Trace ? std::vector<std::pair<Window, double>>{{Measure, 0.25},
                                                       {Traced, 0.5},
                                                       {MeasureAfter, 0.25}}
              : std::vector<std::pair<Window, double>>{{Measure, 1.0}};
  std::vector<std::pair<Clock::time_point, Clock::time_point>> Bounds(5);
  for (auto [W, Share] : Plan) {
    Clock::time_point T0 = Clock::now();
    Phase.store(W, std::memory_order_release);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(C.Seconds * Share));
    Bounds[W] = {T0, Clock::now()};
  }
  Phase.store(Stop, std::memory_order_release);
  for (std::thread &T : Threads)
    T.join();
  D.stop();

  // Checks outside the timed windows.
  for (auto &U : Clients) {
    R.Attempted += U->Attempted;
    R.Failed += U->Failures.Failed;
    R.Failures.insert(R.Failures.end(), U->Failures.Failures.begin(),
                      U->Failures.Failures.end());
    CompileOptions Options;
    Options.Jobs = 1;
    for (const EditSample &S : U->Samples) {
      ++R.Attempted;
      std::unique_ptr<Compilation> Comp = compile(S.Source, Options);
      if (!Comp->ok() || Comp->report() != S.Report)
        R.fail(U->Unit + ": edit response differs from a cold compile");
    }
  }

  // Completed requests per second: the median over the window's
  // one-second slices (a single slice for a shorter window), so a host
  // hiccup in one slice does not move the figure.
  auto Completed = [&](Window W) {
    auto [T0, T1] = Bounds[W];
    double Seconds = std::chrono::duration<double>(T1 - T0).count();
    size_t Slices = std::max<size_t>(1, static_cast<size_t>(Seconds));
    double SliceS = Seconds / static_cast<double>(Slices);
    std::vector<double> Counts(Slices, 0);
    for (auto &U : Clients)
      for (const Request &Q : U->Requests)
        if (Q.Done >= T0 && Q.Done < T1)
          Counts[std::min(Slices - 1,
                          static_cast<size_t>(
                              std::chrono::duration<double>(Q.Done - T0)
                                  .count() /
                              SliceS))] += 1;
    return median(Counts) / SliceS;
  };
  auto Latencies = [&](bool Edit, Window W) {
    std::vector<double> V;
    for (auto &U : Clients)
      for (const Request &Q : U->Requests)
        if (Q.In == W && Q.Edit == Edit)
          V.push_back(Q.RoundtripMs);
    return V;
  };

  if (!C.Trace) {
    std::vector<double> Resubmits = Latencies(false, Measure);
    std::vector<double> Edits = Latencies(true, Measure);
    R.add("setup_s", SetupS, "s");
    R.add("throughput_per_s", Completed(Measure), "1/s");
    R.add("light_op_us", median(Resubmits) * 1e3, "us");
    R.add("heavy_op_us", median(Edits) * 1e3, "us");
    R.add("peak_rss_mb", RssMb, "MiB");
    R.note("resubmits", static_cast<double>(Resubmits.size()));
    R.note("edits", static_cast<double>(Edits.size()));
    return;
  }

  // Traced run: replay the start of the traced window into an in-process
  // analyzer and time the front half and the fingerprinting on each
  // request's source.
  for (auto &S : Spans)
    Log.merge(S);
  std::vector<Span> ReplaySpans;
  std::vector<double> AnalyzeMs[2], FrontMs, FingerprintMs, TransportMs;
  double Hits = 0, Misses = 0, EditHits = 0, EditMisses = 0, Cone = 0,
         Reanalyzed = 0, ReqBytes = 0, RespBytes = 0, NumEdits = 0, NumReq = 0,
         NumResp = 0;
  SummaryCache Cache(1 << 16, 16);
  IncrementalAnalyzer Analyzer(Cache);
  AnalyzeParams Params;
  for (auto &U : Clients) {
    if (U->TracedSources.empty())
      continue;
    Analyzer.analyze(U->Unit, U->TracedBase, Params);
    size_t Next = 0;
    for (const Request &Q : U->Requests) {
      if (Q.In != Traced)
        continue;
      if (Next == MaxReplayPerClient)
        break;
      const std::string &Source = U->TracedSources[Next++];
      AnalyzeOutcome Out;
      double Ms = timedCall(&ReplaySpans, "service.analyze", Q.Id, [&] {
        Out = Analyzer.analyze(U->Unit, Source, Params);
      });
      ++R.Attempted;
      if (!Out.Ok || Out.CacheMisses != Q.Misses)
        R.fail(U->Unit + ": replayed analyze disagrees with the daemon");
      AnalyzeMs[Q.Edit].push_back(Ms);
      TransportMs.push_back(Q.RoundtripMs - Ms);

      DiagnosticEngine Diags;
      std::unique_ptr<Program> Ast;
      std::unique_ptr<ir::IrModule> Module;
      std::unique_ptr<analysis::CallGraph> CG;
      std::unique_ptr<PointsToAnalysis> PT;
      FrontMs.push_back(timedCall(&ReplaySpans, "service.front_half", Q.Id, [&] {
        Parser Parse(Source, Diags);
        Ast = Parse.parseProgram();
        if (!Ast || !runSema(*Ast, Diags))
          return;
        Module = lowerProgram(*Ast, Diags);
        CG = std::make_unique<analysis::CallGraph>(*Module);
        PT = std::make_unique<PointsToAnalysis>(*Module);
      }));
      if (!PT) {
        R.fail(U->Unit + ": front half rejected a replayed source");
        continue;
      }
      FingerprintMs.push_back(
          timedCall(&ReplaySpans, "service.fingerprint", Q.Id, [&] {
            ModuleFingerprint FP(*Module, *CG, *PT);
            for (const auto &F : Module->functions()) {
              const auto &Atomics = F->atomicSections();
              for (unsigned Ord = 0; Ord < Atomics.size(); ++Ord)
                FP.sectionKey(F.get(), Ord, Params.K);
            }
          }));

      Hits += Q.Hits;
      Misses += Q.Misses;
      ReqBytes += static_cast<double>(U->request(Source).str().size());
      if (Q.ResponseBytes) {
        RespBytes += static_cast<double>(Q.ResponseBytes);
        ++NumResp;
      }
      ++NumReq;
      if (Q.Edit) {
        EditHits += Q.Hits;
        EditMisses += Q.Misses;
        Cone += Q.Cone;
        Reanalyzed += Q.Reanalyzed;
        ++NumEdits;
      }
    }
  }
  Log.merge(ReplaySpans);
  if (NumReq == 0 || NumEdits == 0 || AnalyzeMs[0].empty()) {
    R.fail("traced window saw no edits or no resubmits");
    NumReq = std::max(NumReq, 1.0);
    NumEdits = std::max(NumEdits, 1.0);
  }

  double Untraced = (Completed(Measure) + Completed(MeasureAfter)) / 2;
  std::vector<double> Resubmits = Latencies(false, Traced);
  std::vector<double> Edits = Latencies(true, Traced);
  // A tail is reported only with at least ten samples beyond it.
  if (!C.Tiny &&
      (Resubmits.size() < TailSamples || Edits.size() < TailSamples))
    R.fail("too few samples for a p95 (resubmits " +
           std::to_string(Resubmits.size()) + ", edits " +
           std::to_string(Edits.size()) + ")");
  R.add("service.roundtrip_ms.resubmit", median(Resubmits), "ms");
  R.add("service.roundtrip_ms.edit", median(Edits), "ms");
  R.add("service.roundtrip_p95_ms.resubmit", quantile(Resubmits, 0.95), "ms");
  R.add("service.roundtrip_p95_ms.edit", quantile(Edits, 0.95), "ms");
  R.add("service.analyze_ms.resubmit", median(AnalyzeMs[0]), "ms");
  R.add("service.analyze_ms.edit", median(AnalyzeMs[1]), "ms");
  R.add("service.transport_ms", median(TransportMs), "ms");
  R.add("service.front_half_ms", median(FrontMs), "ms");
  R.add("service.fingerprint_ms", median(FingerprintMs), "ms");
  R.add("service.cache_hits", EditHits / NumEdits, "count");
  R.add("service.cache_misses", EditMisses / NumEdits, "count");
  R.add("service.hit_ratio", Hits / std::max(1.0, Hits + Misses), "ratio");
  R.add("service.hit_ratio_base", Hits + Misses, "count");
  R.add("service.dirty_cone_sections", Cone / NumEdits, "count");
  R.add("service.reanalyzed_sections", Reanalyzed / NumEdits, "count");
  R.add("service.request_bytes", ReqBytes / NumReq, "bytes");
  R.add("service.response_bytes", RespBytes / std::max(1.0, NumResp),
        "bytes");
  R.add("trace_overhead_pct",
        (Untraced / Completed(Traced) - 1.0) * 100.0, "%");
}
